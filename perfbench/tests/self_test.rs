//! Benchmark self-test: a tiny-size run of every workload, untraced and
//! traced. Each run must pass its correctness gates (`failed` 0, so
//! `failed_ratio` 0) and emit exactly the metrics `BENCHMARK.json` names
//! for its mode, each with the unit listed there.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use qra::faults::json::{parse, Json};
use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let json = parse(&text).expect("BENCHMARK.json parses");
    json.require(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.require("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.require("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: bool) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--size",
            "tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={trace} exited {:?}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last).expect("the last line is JSON");
    assert_eq!(
        result.require("correct").and_then(Json::as_bool),
        Ok(true),
        "{last}"
    );
    assert_eq!(
        result.require("failed").and_then(Json::as_u64),
        Ok(0),
        "{last}"
    );
    assert!(
        result
            .require("attempted")
            .and_then(Json::as_u64)
            .expect("attempted")
            >= 1
    );
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with(&format!("{workload} failed_ratio"))
                && l.split_whitespace().nth(2) == Some("0")),
        "{workload}: failed_ratio must be 0:\n{stdout}"
    );
    let metrics = result.require("metrics").expect("metrics");
    let Json::Obj(emitted) = metrics else {
        panic!("metrics is not an object: {last}");
    };
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(
        emitted.len(),
        want.len(),
        "{workload}: metric count: {last}"
    );
    for (name, unit) in want {
        let metric = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload} trace={trace}: missing {name}"));
        assert_eq!(
            metric.require("unit").and_then(Json::as_str),
            Ok(unit.as_str()),
            "{name}"
        );
        let value = metric
            .require("value")
            .and_then(Json::as_f64_or_nan)
            .expect("value");
        assert!(value.is_finite(), "{name} = {value}");
        if !trace {
            assert!(
                value > 0.0,
                "{workload}: end-to-end {name} must be positive, got {value}"
            );
        }
    }
}

#[test]
fn assert_ideal_tiny() {
    run("assert-ideal", false);
    run("assert-ideal", true);
}

#[test]
fn sweep_noisy_tiny() {
    run("sweep-noisy", false);
    run("sweep-noisy", true);
}

#[test]
fn serve_repeat_tiny() {
    run("serve-repeat", false);
    run("serve-repeat", true);
}
