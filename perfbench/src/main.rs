//! End-to-end assertion benchmark for the qra workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload assert-ideal|sweep-noisy|serve-repeat --seed N --seconds S --trace 0|1
//! ```
//!
//! Untraced runs (`--trace 0`) print every end-to-end metric; traced runs
//! (`--trace 1`) print every per-layer metric. The last stdout line is one
//! JSON object `{"correct","attempted","failed","metrics"}`; the lines
//! before it are the run record and each workload's metrics under their
//! own names. See `perfbench/README.md`.

mod assert_ideal;
mod common;
mod inputs;
mod layers;
mod replay;
mod serve_repeat;
mod sweep_noisy;
mod trace;

use common::{metrics_json, RunConfig, Size};
use qra::faults::json::json_str;
use std::path::PathBuf;

const WORKLOADS: [&str; 3] = ["assert-ideal", "sweep-noisy", "serve-repeat"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 \
         [--size full|tiny]",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} '{value}'");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad("unknown workload"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("not positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad("want full or tiny")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let run = RunConfig {
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
        work: PathBuf::from(".perfbench-run").join(format!("{workload}-{}", std::process::id())),
        out: PathBuf::from(".perfbench-out"),
    };
    Ok((workload, run))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `qra sweep run` re-invokes its own executable as the sweep's worker
    // subprocesses; in the orchestrated phase that executable is this one,
    // so hand those invocations to the CLI exactly as the `qra` binary does.
    if args.first().map(String::as_str) == Some("worker") {
        match qra_cli::parse_args(&args).and_then(|c| qra_cli::execute_with_code(&c)) {
            Ok((out, code)) => {
                print!("{out}");
                // Leave this worker's peak memory beside its run directory
                // for the orchestrated phase's `peak_rss_mb`.
                let run_dir = args.windows(2).find(|w| w[0] == "--run-dir");
                if let Some(run_dir) = run_dir.map(|w| &w[1]) {
                    let _ = std::fs::write(
                        common::worker_hwm_path(std::path::Path::new(run_dir)),
                        common::peak_rss_mb().to_string(),
                    );
                }
                std::process::exit(code);
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    let (workload, cfg) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let result = std::panic::catch_unwind(|| run(&workload, &cfg))
        .unwrap_or_else(|_| Err("panicked".to_string()));
    // No process the run started outlives it, on any path out of it.
    common::reap_children();
    let _ = std::fs::remove_dir_all(&cfg.work);
    let _ = std::fs::remove_dir(".perfbench-run");
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs one workload, prints its record and report lines, and returns the
/// final JSON line.
fn run(workload: &str, cfg: &RunConfig) -> Result<String, String> {
    std::fs::create_dir_all(&cfg.work)
        .and_then(|()| std::fs::create_dir_all(&cfg.out))
        .map_err(|e| format!("creating work directories: {e}"))?;
    let steal_before = common::cpu_steal();
    let outcome = match workload {
        "assert-ideal" => assert_ideal::run(cfg),
        "sweep-noisy" => sweep_noisy::run(cfg),
        _ => serve_repeat::run(cfg),
    }?;
    let steal_after = common::cpu_steal();
    let steal_pct = 100.0 * (steal_after.0 - steal_before.0) as f64
        / (steal_after.1 - steal_before.1).max(1) as f64;
    let cores = common::nproc();
    let mut record = vec![
        ("workload", workload.to_string()),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("trace", u8::from(cfg.trace).to_string()),
        (
            "size",
            match cfg.size {
                Size::Full => "full",
                Size::Tiny => "tiny",
            }
            .to_string(),
        ),
        ("nproc", cores.to_string()),
        ("degenerate", (cores < 2).to_string()),
        ("cpu_steal_pct", format!("{steal_pct:.1}")),
        (
            "build_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("git_commit", common::git_commit()),
        ("source_fnv", common::source_fingerprint()),
    ];
    record.extend(outcome.record.iter().cloned());
    let record_json = format!(
        "{{{}}}",
        record
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(",")
    );
    let path = cfg.out.join(format!(
        "{workload}-s{}-trace{}-record.json",
        cfg.seed,
        u8::from(cfg.trace)
    ));
    std::fs::write(&path, format!("{record_json}\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("record {record_json}");
    let failed_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    for m in outcome.report.iter().chain(std::iter::once(&common::metric(
        "failed_ratio",
        failed_ratio,
        "ratio",
    ))) {
        println!(
            "{workload} {:<24} {:>14} {}",
            m.name,
            common::json_num(m.value),
            m.unit
        );
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&outcome.metrics)
    ))
}
