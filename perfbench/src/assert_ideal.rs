//! `assert-ideal`: one client in a closed loop sending one-shot, noiseless
//! `qra assert` requests through `parse_args` + `execute` with no cache —
//! what a `qra assert` user pays per call.
//!
//! A cycle holds one request per (state family × width) class: ghz, w,
//! plus, `set:` and `amps:` on 3–7 asserted qubits. Across cycles each
//! class rotates through the swap, or, ndd and auto designs and alternates
//! between its correct host and its injected-bug host on a fixed schedule,
//! so every run measures the same mix whatever its seed; the seed picks
//! the set members, amplitudes, bug qubits and request seeds. The run
//! measures rounds of four cycles (every class once with every design)
//! for as many rounds as end nearest the time budget.

use crate::common::{
    mb_list, metric, ms, peak_rss_mb, percentile, timed_setups, Outcome, RunConfig, Size,
};
use crate::inputs::{asserted, derive, qubit_list, write_qasm, Rng, SpecKind};
use crate::layers::{end_to_end, Layers};
use crate::replay::{replay_job, Counters, Tracer};
use crate::trace::{total_ms, Trace};
use qra_cli::{execute, parse_args};
use std::collections::HashSet;
use std::path::Path;
use std::time::{Duration, Instant};

const DESIGNS: [&str; 4] = ["swap", "or", "ndd", "auto"];
const SHOTS: &str = "1024";

/// One (state family × width) class with its two generated hosts.
#[derive(Debug)]
struct Class {
    n: usize,
    state: String,
    correct: String,
    buggy: String,
}

#[derive(Debug, Clone)]
struct Request {
    n: usize,
    bug: bool,
    argv: Vec<String>,
}

/// A request that ran untraced: its output and wall-clock.
#[derive(Debug)]
struct Done {
    request: Request,
    output: Result<String, String>,
    latency_ms: f64,
}

fn widths(size: Size) -> Vec<usize> {
    match size {
        Size::Full => (3..=7).collect(),
        Size::Tiny => vec![2, 3],
    }
}

fn setup(cfg: &RunConfig, dir: &Path) -> Result<Vec<Class>, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut rng = Rng::new(derive(cfg.seed, 1));
    let mut classes = Vec::new();
    for n in widths(cfg.size) {
        for kind in SpecKind::ALL {
            let spec = asserted(kind, n, &mut rng)?;
            let stem = format!("{}{n}", kind.label());
            classes.push(Class {
                n,
                state: spec.state,
                correct: write_qasm(dir, &format!("{stem}.qasm"), &spec.correct)?,
                buggy: write_qasm(dir, &format!("{stem}-bug.qasm"), &spec.buggy)?,
            });
        }
    }
    Ok(classes)
}

/// The requests of cycle `c`, one per class.
fn cycle(classes: &[Class], seed: u64, c: usize) -> Vec<Request> {
    classes
        .iter()
        .enumerate()
        .map(|(k, class)| {
            // Within a width the five families take the designs in turn,
            // so every cycle's design mix is the same for every seed.
            let d = (c + k) % DESIGNS.len();
            let bug = (c + k + class.n) % 2 == 1;
            let request_seed = derive(seed, ((c as u64) << 16) | k as u64) % 1_000_000_000;
            Request {
                n: class.n,
                bug,
                argv: vec![
                    "assert".to_string(),
                    if bug {
                        class.buggy.clone()
                    } else {
                        class.correct.clone()
                    },
                    "--qubits".to_string(),
                    qubit_list(class.n),
                    "--state".to_string(),
                    class.state.clone(),
                    "--design".to_string(),
                    DESIGNS[d].to_string(),
                    "--shots".to_string(),
                    SHOTS.to_string(),
                    "--seed".to_string(),
                    request_seed.to_string(),
                ],
            }
        })
        .collect()
}

/// The semantic correctness gate: a correct host must read error rate 0
/// and `pass`, an injected-bug host `FAIL`.
fn verdict_ok(output: &str, bug: bool) -> bool {
    let field = |key: &str| {
        output
            .lines()
            .find_map(|line| line.strip_prefix(key).map(str::trim))
    };
    match (field("error rate:"), field("verdict:")) {
        (Some(rate), Some(verdict)) => {
            if bug {
                verdict == "FAIL"
            } else {
                rate.parse::<f64>() == Ok(0.0) && verdict == "pass"
            }
        }
        _ => false,
    }
}

/// What the closed loop measured.
struct Loop {
    done: Vec<Done>,
    elapsed: Duration,
    cycles: usize,
    /// Peak resident memory after each round.
    rss_mb: Vec<f64>,
}

/// Untraced requests in rounds of one cycle per design, so each round
/// pairs every class with every design once; rounds repeat while another
/// one brings the run's end closer to `budget` (at least one runs).
fn closed_loop(classes: &[Class], seed: u64, budget: Duration) -> Loop {
    let start = Instant::now();
    let mut done = Vec::new();
    let mut cycles = 0;
    let mut rss_mb = Vec::new();
    let mut round_time = Duration::ZERO;
    while cycles == 0 || start.elapsed() + round_time / 2 < budget {
        let round_start = Instant::now();
        let round: Vec<Request> = (cycles..cycles + DESIGNS.len())
            .flat_map(|c| cycle(classes, seed, c))
            .collect();
        for request in round {
            let t0 = Instant::now();
            let output = parse_args(&request.argv)
                .and_then(|command| execute(&command))
                .map_err(|e| e.0);
            let latency_ms = ms(t0.elapsed());
            done.push(Done {
                request,
                output,
                latency_ms,
            });
        }
        rss_mb.push(peak_rss_mb());
        cycles += DESIGNS.len();
        round_time = round_start.elapsed();
    }
    Loop {
        done,
        elapsed: start.elapsed(),
        cycles,
        rss_mb,
    }
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let dir = cfg.work.join("assert-ideal");
    let (setup_s, classes) = timed_setups(|| setup(cfg, &dir))?;
    let budget = if cfg.trace {
        // The traced replay of the same requests takes about twice as
        // long (it times the nested basis computation separately).
        cfg.budget() / 3
    } else {
        cfg.budget()
    };
    let Loop {
        done,
        elapsed,
        cycles,
        rss_mb: rss_by_round,
    } = closed_loop(&classes, cfg.seed, budget);
    let rss = rss_by_round.iter().copied().fold(0.0, f64::max);
    let failed_gate = |d: &Done| match &d.output {
        Ok(out) => !verdict_ok(out, d.request.bug),
        Err(_) => true,
    };
    let mut failed = done.iter().filter(|d| failed_gate(d)).count() as u64;
    let latencies: Vec<f64> = done.iter().map(|d| d.latency_ms).collect();
    let requests_per_s = done.len() as f64 / elapsed.as_secs_f64();
    let (p50, p90) = (percentile(&latencies, 0.5), percentile(&latencies, 0.9));
    let mut outcome = Outcome {
        attempted: done.len() as u64,
        report: vec![
            metric("setup_s", setup_s, "s"),
            metric("requests_per_s", requests_per_s, "1/s"),
            metric("latency_p50_ms", p50, "ms"),
            metric("latency_p90_ms", p90, "ms"),
            metric("latency_samples", done.len() as f64, "count"),
            metric("peak_rss_mb", rss, "MB"),
        ],
        record: vec![
            ("loop", "closed".to_string()),
            ("client_threads", "1".to_string()),
            ("sim_threads", "auto (one per core)".to_string()),
            ("cycles", cycles.to_string()),
            ("requests_per_cycle", classes.len().to_string()),
            ("peak_rss_mb_by_round", mb_list(&rss_by_round)),
        ],
        ..Outcome::default()
    };
    if !cfg.trace {
        outcome.metrics = end_to_end(setup_s, requests_per_s, p90, rss);
        outcome.failed = failed;
        return Ok(outcome);
    }

    // Traced replay of the very same requests, layer by layer.
    let trace = Trace::new();
    let counters = Counters::default();
    let widest = widths(cfg.size).into_iter().max().unwrap_or(0);
    let mut widest_reqs = HashSet::new();
    let mut first_cycle_reqs = HashSet::new();
    let mut traced_total = Duration::ZERO;
    for (i, d) in done.iter().enumerate() {
        let req = trace.request();
        if d.request.n == widest {
            widest_reqs.insert(req);
        }
        if i < classes.len() {
            first_cycle_reqs.insert(req);
        }
        let t0 = Instant::now();
        let replayed = trace.span("request", None, req, |root| {
            replay_job(
                Tracer {
                    trace: &trace,
                    counters: &counters,
                    req,
                    parent: Some(root),
                },
                &d.request.argv,
                None,
            )
        });
        traced_total += t0.elapsed();
        let same =
            matches!((&replayed, &d.output), (Ok((out, 0)), Ok(expected)) if out == expected);
        if !same {
            failed += 1;
        }
    }
    let ops = done.len() as u64;
    let totals = trace.totals(|_| true);
    let mut layers = Layers::new();
    layers.spans(&totals, ops);
    layers.counters(&counters);
    let (cx, ancillas) = counters
        .assertions
        .lock()
        .expect("counters poisoned")
        .iter()
        .filter(|(req, _)| first_cycle_reqs.contains(req))
        .fold((0, 0), |(cx, anc), (_, c)| (cx + c.cx, anc + c.ancilla));
    layers.set("core.assertion_cx", cx as f64);
    layers.set("core.assertion_ancillas", ancillas as f64);
    // The replay runs the basis computation twice (its own span, then
    // inside insert_assertion): a traced request minus that span is the
    // work an untraced request does.
    let wide = trace.totals(|req| widest_reqs.contains(&req));
    let wide_basis = total_ms(&wide, "core.correct_states", 1);
    let wide_request = total_ms(&wide, "request", 1) - wide_basis;
    if wide_request > 0.0 {
        layers.set(
            "core.correct_states_pct_widest",
            100.0 * wide_basis / wide_request,
        );
    }
    let traced_op = total_ms(&totals, "request", ops);
    layers.set(
        "bench.unaccounted_ms",
        crate::trace::self_ms(&totals, "request", ops),
    );
    layers.set("bench.traced_op_ms", traced_op);
    let untraced_total: f64 = latencies.iter().sum();
    layers.set(
        "bench.accounted_pct",
        100.0 * (traced_op - total_ms(&totals, "core.correct_states", ops))
            / (untraced_total / ops as f64),
    );
    layers.set(
        "bench.tracing_overhead_pct",
        100.0 * (ms(traced_total) / untraced_total - 1.0),
    );
    layers.set("bench.failed_ratio", failed as f64 / (2 * ops) as f64);
    outcome.attempted = 2 * ops;
    outcome.failed = failed;
    outcome.metrics = layers.into_metrics();
    cfg.write_spans("assert-ideal", &trace)?;
    Ok(outcome)
}
