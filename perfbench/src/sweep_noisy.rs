//! `sweep-noisy`: one GHZ-4 campaign sweep over the `ideal,low,melbourne`
//! noise points with the campaign's default designs (swap, or, ndd), run
//! twice per round:
//! in-process through `qra_faults::run_sweep_with_executor` (`--jobs 2`),
//! then as `qra sweep run --workers 2` on a fresh run directory. The two
//! reports must be byte-identical. The run makes as many rounds as end
//! nearest the time budget (at least one).

use crate::common::{
    mb_list, median, metric, ms, peak_rss_mb, percentile, reap_children, timed_setups, Outcome,
    RunConfig, Size,
};
use crate::layers::{end_to_end, Layers};
use crate::replay::{execute as replay_execute, Counters, Tracer};
use crate::trace::{total_ms, Trace};
use qra::circuit::Circuit;
use qra::core::{insert_assertion, StateSpec};
use qra::faults::{
    default_executor, run_sweep_with_executor, BackendKind, CampaignConfig, CellStatus,
    FaultInjector, Mutant, SweepConfig, SweepPoint, SweepReport,
};
use qra::sim::{Counts, DevicePreset, ProgramCache, SimError};
use qra_cli::{execute, parse_args, parse_state, CampaignArgs, CampaignSource, Command};
use std::cell::Cell;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const JOBS: usize = 2;
const WORKERS: usize = 2;

/// The sweep's inputs, built the way `qra campaign` builds them.
struct Sweep {
    args: CampaignArgs,
    program: Circuit,
    qubits: Vec<usize>,
    spec: StateSpec,
    mutants: Vec<Mutant>,
    config: SweepConfig,
    /// The campaign flags shared by both phases (after the subcommand).
    flags: Vec<String>,
}

fn flags(cfg: &RunConfig) -> Vec<String> {
    let ghz = match cfg.size {
        Size::Full => "4",
        Size::Tiny => "2",
    };
    let seed = (cfg.seed % 1_000_000_000).to_string();
    [
        "--ghz",
        ghz,
        "--designs",
        "swap,or,ndd",
        "--sweep",
        "ideal,low,melbourne",
        "--jobs",
        "2",
        "--seed",
        &seed,
        "--json",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn setup(cfg: &RunConfig, dir: &Path) -> Result<Sweep, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let flags = flags(cfg);
    let mut argv = vec!["campaign".to_string()];
    argv.extend(flags.iter().cloned());
    let Command::Campaign(args) = parse_args(&argv).map_err(|e| e.0)? else {
        return Err("campaign argv did not parse as a campaign".to_string());
    };
    // Mirrors what `qra campaign` does with these args.
    let CampaignSource::Ghz(n) = args.source else {
        return Err("sweep source must be --ghz".to_string());
    };
    let program = qra::algorithms::states::ghz(n);
    let qubits: Vec<usize> = (0..n).collect();
    let spec = parse_state(&args.state, n).map_err(|e| e.0)?;
    let injector = FaultInjector::new(args.seed);
    let mut mutants = injector.enumerate_single(&program);
    mutants.extend(injector.sample_double(&program, args.doubles));
    let base = CampaignConfig {
        shots: args.shots,
        seed: args.seed,
        designs: args.designs.clone(),
        deadline: args.deadline_ms.map(Duration::from_millis),
        memory_budget_bytes: args.memory_budget_mb.saturating_mul(1 << 20),
        jobs: args.jobs.unwrap_or(0),
        sim_threads: args.sim_threads.unwrap_or(0),
        noise: args.noise.noise_model(),
        detection_threshold: args.threshold,
        backend: args.backend,
        ..CampaignConfig::default()
    };
    let points = args
        .sweep
        .as_deref()
        .unwrap_or(&[])
        .iter()
        .map(|&(preset, factor)| {
            if factor == 1.0 {
                SweepPoint::preset(preset)
            } else {
                SweepPoint::scaled(preset, factor)
            }
        })
        .collect();
    let config = SweepConfig {
        points,
        base,
        margin: args.margin,
    };
    Ok(Sweep {
        args,
        program,
        qubits,
        spec,
        mutants,
        config,
        flags,
    })
}

thread_local! {
    /// (phase, completion time of this runner thread's previous cell).
    static LAST_CELL: Cell<Option<(u64, Instant)>> = const { Cell::new(None) };
}

/// Per-cell wall-clock: the gap between successive cell completions on one
/// runner thread (a cell is synthesis + execution + bookkeeping); a
/// thread's first cell in a phase counts from its own executor call.
struct CellClock {
    phase: u64,
    samples: Mutex<Vec<f64>>,
}

impl CellClock {
    fn new(phase: u64) -> CellClock {
        CellClock {
            phase,
            samples: Mutex::new(Vec::new()),
        }
    }

    fn finish(&self, call_start: Instant) {
        let now = Instant::now();
        let from = LAST_CELL.with(|last| match last.get() {
            Some((phase, at)) if phase == self.phase => at,
            _ => call_start,
        });
        LAST_CELL.with(|last| last.set(Some((self.phase, now))));
        self.samples
            .lock()
            .expect("cell clock poisoned")
            .push(ms(now - from));
    }
}

/// One in-process phase's result.
struct InProcess {
    json: String,
    report: SweepReport,
    wall: Duration,
    cell_ms: Vec<f64>,
}

fn in_process(
    sweep: &Sweep,
    config: &SweepConfig,
    phase: u64,
    executor: &qra::faults::Executor<'_>,
) -> InProcess {
    let clock = CellClock::new(phase);
    let timed = |circuit: &Circuit, cfg: &CampaignConfig, seed: u64| {
        let start = Instant::now();
        let out = executor(circuit, cfg, seed);
        clock.finish(start);
        out
    };
    let start = Instant::now();
    let report = run_sweep_with_executor(
        &sweep.program,
        &sweep.qubits,
        &sweep.spec,
        &sweep.mutants,
        config,
        &timed,
    );
    let wall = start.elapsed();
    InProcess {
        json: report.to_json(),
        report,
        wall,
        cell_ms: clock.samples.into_inner().expect("cell clock poisoned"),
    }
}

/// Cells in a report, and how many failed or were skipped.
fn cell_counts(report: &SweepReport) -> (u64, u64, u64, [u64; 4]) {
    let (mut cells, mut failed, mut skipped) = (0, 0, 0);
    let mut backends = [0; 4];
    for point in &report.points {
        let statuses = point
            .report
            .baselines
            .iter()
            .map(|b| &b.status)
            .chain(point.report.cells.iter().map(|c| &c.status));
        for status in statuses {
            cells += 1;
            match status {
                CellStatus::Completed { backend, .. } => {
                    backends[match backend {
                        BackendKind::Statevector => 0,
                        BackendKind::DensityMatrix => 1,
                        BackendKind::Trajectory => 2,
                        BackendKind::Stabilizer => 3,
                    }] += 1;
                }
                CellStatus::Failed { .. } => failed += 1,
                CellStatus::Skipped { .. } => skipped += 1,
            }
        }
    }
    (cells, failed, skipped, backends)
}

/// The orchestrated phase's result.
struct Orchestrated {
    json: Result<String, String>,
    wall: Duration,
    status: String,
    attempts: u64,
    /// Sum of the worker processes' peak resident memory, MiB.
    workers_rss_mb: f64,
    /// Workers still running after `sweep run` returned, killed here.
    orphans: usize,
}

fn orchestrated(sweep: &Sweep, dir: &Path, round: usize) -> Orchestrated {
    let run_dir = dir.join(format!("run{round}"));
    let mut argv = vec![
        "sweep".to_string(),
        "run".to_string(),
        "--run-dir".to_string(),
        run_dir.to_string_lossy().into_owned(),
        "--workers".to_string(),
        WORKERS.to_string(),
    ];
    argv.extend(sweep.flags.iter().cloned());
    let start = Instant::now();
    let json = parse_args(&argv).and_then(|c| execute(&c)).map_err(|e| e.0);
    let wall = start.elapsed();
    let orphans = reap_children();
    if orphans > 0 {
        eprintln!("sweep-noisy: killed {orphans} worker(s) left running by sweep run");
    }
    let status_argv = vec![
        "sweep".to_string(),
        "status".to_string(),
        run_dir.to_string_lossy().into_owned(),
        "--json".to_string(),
    ];
    let status = parse_args(&status_argv)
        .and_then(|c| execute(&c))
        .unwrap_or_default();
    let attempts = std::fs::read_dir(run_dir.join("attempts")).map_or(0, |d| d.count() as u64);
    let _ = std::fs::remove_dir_all(&run_dir);
    Orchestrated {
        json,
        wall,
        status,
        attempts,
        workers_rss_mb: workers_rss_mb(&run_dir),
        orphans,
    }
}

/// The summed peak memory the phase's worker processes left beside
/// `run_dir` (see `common::worker_hwm_path`); the files are removed.
fn workers_rss_mb(run_dir: &Path) -> f64 {
    let (Some(parent), Some(stem)) = (run_dir.parent(), run_dir.file_name()) else {
        return 0.0;
    };
    let prefix = format!("{}.hwm-", stem.to_string_lossy());
    let Ok(entries) = std::fs::read_dir(parent) else {
        return 0.0;
    };
    let mut total = 0.0;
    for entry in entries.flatten() {
        if entry.file_name().to_string_lossy().starts_with(&prefix) {
            let path = entry.path();
            total += std::fs::read_to_string(&path)
                .ok()
                .and_then(|mb| mb.trim().parse::<f64>().ok())
                .unwrap_or(0.0);
            let _ = std::fs::remove_file(path);
        }
    }
    total
}

fn status_count(status: &str, key: &str) -> f64 {
    let Ok(value) = qra::faults::json::parse(status) else {
        return 0.0;
    };
    match value.get(key) {
        Some(v) => v
            .as_u64()
            .map(|n| n as f64)
            .or_else(|_| v.as_arr().map(|a| a.len() as f64))
            .unwrap_or(0.0),
        None => 0.0,
    }
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let dir = cfg.work.join("sweep-noisy");
    let (setup_s, sweep) = timed_setups(|| setup(cfg, &dir))?;
    if cfg.trace {
        return run_traced(cfg, &dir, setup_s, &sweep);
    }
    let start = Instant::now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut cells, mut units) = (0u64, 0u64);
    let (mut wall_in, mut wall_orch) = (Duration::ZERO, Duration::ZERO);
    let mut cell_ms = Vec::new();
    let mut rss_by_round = Vec::new();
    let mut orphans = 0;
    let mut rounds = 0;
    // Another round only when it brings the run's end nearer the budget.
    let mut round_time = Duration::ZERO;
    while rounds == 0 || start.elapsed() + round_time / 2 < cfg.budget() {
        let round_start = Instant::now();
        let a = in_process(&sweep, &sweep.config, rounds as u64, &default_executor);
        let (n, bad, skipped, _) = cell_counts(&a.report);
        let c = orchestrated(&sweep, &dir, rounds);
        attempted += 2 * n;
        failed += bad + skipped;
        orphans += c.orphans;
        match &c.json {
            Ok(json) if *json == a.json => {}
            orchestrated => {
                failed += n;
                keep_mismatch(cfg, rounds, &a.json, orchestrated, &c.status);
            }
        }
        // This process ran the in-process phase; the workers ran the
        // orchestrated one.
        rss_by_round.push(peak_rss_mb() + c.workers_rss_mb);
        cells += n;
        units += n;
        wall_in += a.wall;
        wall_orch += c.wall;
        cell_ms.extend(a.cell_ms);
        rounds += 1;
        round_time = round_start.elapsed();
    }
    let cells_per_s = cells as f64 / wall_in.as_secs_f64();
    let units_per_s = units as f64 / wall_orch.as_secs_f64();
    let ops_per_s = (cells + units) as f64 / (wall_in + wall_orch).as_secs_f64();
    let (p50, p90) = (percentile(&cell_ms, 0.5), percentile(&cell_ms, 0.9));
    let rss = rss_by_round.iter().copied().fold(0.0, f64::max);
    let mut record = record(&sweep, rounds, orphans);
    record.push(("peak_rss_mb_by_round", mb_list(&rss_by_round)));
    Ok(Outcome {
        attempted,
        failed,
        metrics: end_to_end(setup_s, ops_per_s, p90, rss),
        report: vec![
            metric("setup_s", setup_s, "s"),
            metric("cells_per_s", cells_per_s, "1/s"),
            metric("units_per_s", units_per_s, "1/s"),
            metric("latency_p50_ms", p50, "ms"),
            metric("latency_p90_ms", p90, "ms"),
            metric("latency_samples", cell_ms.len() as f64, "count"),
            metric("peak_rss_mb", rss, "MB"),
        ],
        record,
    })
}

/// Keeps both sides of a failed byte-identity gate in the output
/// directory, so the difference can be read after the run.
fn keep_mismatch(
    cfg: &RunConfig,
    round: usize,
    in_process: &str,
    orchestrated: &Result<String, String>,
    status: &str,
) {
    let stem = cfg
        .out
        .join(format!("sweep-noisy-s{}-round{round}", cfg.seed));
    let orchestrated = match orchestrated {
        Ok(json) => json.clone(),
        Err(e) => format!("error: {e}\n"),
    };
    let _ = std::fs::write(stem.with_extension("in-process.json"), in_process);
    let _ = std::fs::write(stem.with_extension("orchestrated.json"), orchestrated);
    let _ = std::fs::write(stem.with_extension("status.json"), status);
    eprintln!(
        "sweep-noisy: reports differ; both kept beside {}",
        stem.display()
    );
}

fn record(sweep: &Sweep, rounds: usize, orphans: usize) -> Vec<(&'static str, String)> {
    vec![
        ("campaign_jobs", JOBS.to_string()),
        ("sweep_workers", WORKERS.to_string()),
        ("sim_threads", "auto (cores / jobs)".to_string()),
        ("rounds", rounds.to_string()),
        ("orphaned_workers_killed", orphans.to_string()),
        ("mutants", sweep.mutants.len().to_string()),
        ("designs", sweep.args.designs.len().to_string()),
        ("points", sweep.config.points.len().to_string()),
    ]
}

/// Traced run: an untraced in-process reference, a traced in-process
/// phase (executor replayed layer by layer, synthesis replayed per cell),
/// and the orchestrated phase; all three reports must be identical.
fn run_traced(cfg: &RunConfig, dir: &Path, setup_s: f64, sweep: &Sweep) -> Result<Outcome, String> {
    let reference = in_process(sweep, &sweep.config, 0, &default_executor);
    let (cells, bad, skipped, backends) = cell_counts(&reference.report);

    let trace = Trace::new();
    let counters = Counters::default();
    let cache = Arc::new(ProgramCache::new());
    let melbourne = qra::sim::cache::noise_fingerprint(&DevicePreset::MelbourneLike.noise_model());
    let widest = sweep.qubits.len() * 2;
    let melbourne_widest: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let executor_busy = AtomicU64::new(0);
    let traced_executor = |circuit: &Circuit,
                           config: &CampaignConfig,
                           seed: u64|
     -> Result<(Counts, BackendKind), SimError> {
        let req = trace.request();
        if circuit.num_qubits() >= widest
            && qra::sim::cache::noise_fingerprint(&config.noise) == melbourne
        {
            melbourne_widest.lock().expect("poisoned").push(req);
        }
        let start = Instant::now();
        let out = trace.span("faults.executor", None, req, |id| {
            replay_execute(
                Tracer {
                    trace: &trace,
                    counters: &counters,
                    req,
                    parent: Some(id),
                },
                circuit,
                config,
                seed,
            )
        });
        executor_busy.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    };
    let traced_config = SweepConfig {
        base: CampaignConfig {
            cache: Some(Arc::clone(&cache)),
            ..sweep.config.base.clone()
        },
        ..sweep.config.clone()
    };
    let traced = in_process(sweep, &traced_config, 1, &traced_executor);

    // insert_assertion runs inside the campaign runner, out of the
    // benchmark's reach: replay it on the same inputs, once per cell.
    let synth = Trace::new();
    for _ in &sweep.config.points {
        for circuit in
            std::iter::once(&sweep.program).chain(sweep.mutants.iter().map(|m| &m.circuit))
        {
            for design in &sweep.args.designs {
                let Some(design) = design.as_design() else {
                    continue;
                };
                let req = synth.request();
                let _ = synth.span("core.correct_states", None, req, |_| {
                    sweep.spec.correct_states()
                });
                let mut asserted = circuit.clone();
                let _ = synth.span("core.insert_assertion", None, req, |_| {
                    insert_assertion(&mut asserted, &sweep.qubits, &sweep.spec, design)
                });
            }
        }
    }

    let orch = orchestrated(sweep, dir, 0);
    let mut failed = 3 * (bad + skipped);
    if traced.json != reference.json {
        failed += cells;
    }
    match &orch.json {
        Ok(json) if *json == reference.json => {}
        orchestrated => {
            failed += cells;
            keep_mismatch(cfg, 0, &reference.json, orchestrated, &orch.status);
        }
    }

    let ops = cells;
    let totals = trace.totals(|_| true);
    let mut layers = Layers::new();
    layers.spans(&totals, ops);
    let synth_totals = synth.totals(|_| true);
    let correct_ms = total_ms(&synth_totals, "core.correct_states", ops);
    let insert_ms = total_ms(&synth_totals, "core.insert_assertion", ops);
    layers.set("core.correct_states_ms", correct_ms);
    layers.set("core.insert_assertion_ms", insert_ms);
    layers.set(
        "core.insert_assertion_self_ms",
        (insert_ms - correct_ms).max(0.0),
    );
    layers.counters(&counters);
    for (name, count) in [
        ("sim.cells_statevector", backends[0]),
        ("sim.cells_density", backends[1]),
        ("sim.cells_trajectory", backends[2]),
        ("sim.cells_stabilizer", backends[3]),
    ] {
        layers.set(name, count as f64);
    }
    layers.cache(&cache);
    let (cx, ancillas) = reference
        .report
        .points
        .first()
        .map(|p| {
            p.report
                .baselines
                .iter()
                .filter_map(|b| b.assertion_cost)
                .fold((0, 0), |(cx, anc), c| (cx + c.cx, anc + c.ancilla))
        })
        .unwrap_or((0, 0));
    layers.set("core.assertion_cx", cx as f64);
    layers.set("core.assertion_ancillas", ancillas as f64);
    let hot: std::collections::HashSet<u64> = melbourne_widest
        .into_inner()
        .expect("poisoned")
        .into_iter()
        .collect();
    let hot_totals = trace.totals(|req| hot.contains(&req));
    let hot_executor = total_ms(&hot_totals, "faults.executor", 1);
    if hot_executor > 0.0 {
        layers.set(
            "sim.density_compile_pct_melbourne_widest",
            100.0 * total_ms(&hot_totals, "sim.density_compile", 1) / hot_executor,
        );
    }
    let busy_s = executor_busy.load(Ordering::Relaxed) as f64 / 1e9;
    layers.set("faults.executor_busy_s", busy_s);
    layers.set(
        "faults.non_executor_busy_s",
        (traced.wall.as_secs_f64() * JOBS as f64 - busy_s).max(0.0),
    );
    layers.set("faults.cells_completed", (cells - bad - skipped) as f64);
    layers.set("faults.cells_failed", bad as f64);
    layers.set("faults.cells_skipped", skipped as f64);
    layers.set(
        "faults.cells_per_s",
        cells as f64 / traced.wall.as_secs_f64(),
    );
    layers.set("orch.units_per_s", cells as f64 / orch.wall.as_secs_f64());
    layers.set(
        "orch.overhead_s",
        orch.wall.as_secs_f64() - reference.wall.as_secs_f64(),
    );
    layers.set("orch.attempts", orch.attempts as f64);
    layers.set(
        "orch.quarantined",
        status_count(&orch.status, "quarantined"),
    );
    layers.set("orch.torn_lines", status_count(&orch.status, "torn_lines"));
    // Per cell: wall × jobs minus executor and the replayed synthesis.
    layers.set(
        "bench.unaccounted_ms",
        ((traced.wall.as_secs_f64() * JOBS as f64 - busy_s) * 1e3 / ops as f64 - insert_ms)
            .max(0.0),
    );
    layers.set("bench.traced_op_ms", median(&traced.cell_ms));
    // Executor time plus replayed synthesis per cell, against the
    // untraced phase's busy time per cell.
    layers.set(
        "bench.accounted_pct",
        100.0 * (busy_s * 1e3 / ops as f64 + insert_ms)
            / (reference.wall.as_secs_f64() * JOBS as f64 * 1e3 / ops as f64),
    );
    layers.set(
        "bench.tracing_overhead_pct",
        100.0 * (traced.wall.as_secs_f64() / reference.wall.as_secs_f64() - 1.0),
    );
    layers.set("bench.failed_ratio", failed as f64 / (3 * cells) as f64);
    cfg.write_spans("sweep-noisy", &trace)?;
    Ok(Outcome {
        attempted: 3 * cells,
        failed,
        metrics: layers.into_metrics(),
        report: vec![
            metric("setup_s", setup_s, "s"),
            metric(
                "cells_per_s",
                cells as f64 / reference.wall.as_secs_f64(),
                "1/s",
            ),
            metric("units_per_s", cells as f64 / orch.wall.as_secs_f64(), "1/s"),
        ],
        record: record(sweep, 1, orch.orphans),
    })
}
