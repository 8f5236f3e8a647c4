//! `serve-repeat`: a closed loop against an in-process `qra serve` daemon
//! (`qra_serve::Server` running the production `qra_cli::daemon_executor`).
//!
//! Two clients, each on its own connection, send batches the way
//! `qra batch` sends them (`qra_serve::submit_jobs`) and send the next
//! batch as soon as the last answer to the previous one is in. A batch
//! holds every job of a fixed template pool of narrow `run`/`assert` jobs
//! (2–5 qubits, ideal and noisy) `PASSES` times in a seeded order, plus
//! `FRESH` first-seen circuits. The daemon starts cold with one shared
//! `ProgramCache`, so cache misses are part of the steady state. A batch
//! is timed from its send to its last answer: hundreds of milliseconds of
//! queueing and service, well above the slices of CPU time a shared host
//! takes away.

use crate::common::{
    median, metric, ms, peak_rss_mb, percentile, timed_setups, Outcome, RunConfig, Size,
};
use crate::inputs::{
    argv, asserted, derive, qubit_list, random_measured, write_qasm, Rng, SpecKind,
};
use crate::layers::{end_to_end, Layers};
use crate::replay::{replay_job, Counters, Tracer};
use crate::trace::{total_ms, Trace};
use qra::serve::{request_status, submit_jobs, JobExecutor, JobResponse, Server, ServerConfig};
use qra::sim::ProgramCache;
use qra_cli::{daemon_executor, execute_with_code, parse_args};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Clients, each with its own connection and one batch in flight.
const CLIENTS: usize = 2;
/// Daemon workers: one per core of a 2-core host.
const DAEMON_WORKERS: usize = 2;
/// Times every template job appears in a full-size batch.
const PASSES: usize = 3;
/// First-seen jobs per full-size batch: 8 of 80, one job in ten.
const FRESH: usize = 8;
/// A batch counts toward goodput when all its answers are correct and in
/// within this many milliseconds of sending it.
const LIMIT_MS: f64 = 1000.0;
const QUEUE_DEPTH: usize = 1024;
/// `peak_rss_mb` is read when client 0 is about to send this batch of a
/// full-size run. The unbounded `ProgramCache` keeps one entry per
/// first-seen circuit, so the process's peak grows with the jobs done;
/// read at a fixed point of the work, it compares across runs of
/// different speed. At ~1400 jobs/s on a 2-core host the point comes
/// about 11 s into a 30 s run.
const RSS_MARK_BATCH: usize = 100;

/// An in-process daemon: the production server on its own thread.
struct Daemon {
    socket: PathBuf,
    drain: Box<dyn Fn() + Send + Sync>,
    thread: Option<JoinHandle<Result<qra::serve::ServeSummary, qra::serve::ServeError>>>,
}

impl Daemon {
    fn start(
        socket: &Path,
        executor: Arc<JobExecutor>,
        cache: Arc<ProgramCache>,
    ) -> Result<Daemon, String> {
        let server = Server::new(
            ServerConfig {
                socket: socket.to_path_buf(),
                workers: DAEMON_WORKERS,
                queue_depth: QUEUE_DEPTH,
                cache: Some(cache),
                hosts: Vec::new(),
                handle_sigterm: false,
            },
            executor,
        );
        let drain = Box::new(server.drain_when());
        let thread = std::thread::spawn(move || server.run());
        let mut daemon = Daemon {
            socket: socket.to_path_buf(),
            drain,
            thread: Some(thread),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if request_status(socket).is_ok() {
                return Ok(daemon);
            }
            if daemon.thread.as_ref().is_some_and(JoinHandle::is_finished)
                || Instant::now() > deadline
            {
                return Err(match daemon.stop() {
                    Err(e) => format!("daemon did not come up: {e}"),
                    Ok(()) => "daemon exited before answering".to_string(),
                });
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    fn status(&self) -> Result<String, String> {
        request_status(&self.socket).map_err(|e| e.0)
    }

    /// Drains the daemon and joins its thread.
    fn stop(&mut self) -> Result<(), String> {
        (self.drain)();
        match self.thread.take() {
            Some(thread) => match thread.join() {
                Ok(Ok(_)) => Ok(()),
                Ok(Err(e)) => Err(e.0),
                Err(_) => Err("daemon thread panicked".to_string()),
            },
            None => Ok(()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// One job shape: what runs, on how many qubits, under which noise.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Run {
        n: usize,
        noise: &'static str,
    },
    Assert {
        n: usize,
        family: SpecKind,
        design: &'static str,
        noise: &'static str,
        bug: bool,
    },
}

/// The repeated job pool, a fixed mix of shapes so every seed offers the
/// same load: `run` and `assert`, ideal and noisy. A quarter of the full
/// pool are 5-qubit asserts (~4 ms of basis computation and synthesis on
/// a 2-core host, which the cache does not save); the rest answer in
/// about a millisecond. Noisy asserts stay at 2–3 qubits so the density
/// engine's register (asserted qubits plus ancillas) stays small. The
/// seed picks the circuits, bug qubits and job seeds.
fn shapes(size: Size) -> Vec<Shape> {
    use SpecKind::{Ghz, Plus, W};
    let run = |n, noise| Shape::Run { n, noise };
    let assert = |n, family, design, noise, bug| Shape::Assert {
        n,
        family,
        design,
        noise,
        bug,
    };
    let ideal = "ideal";
    let mut shapes = vec![
        run(2, ideal),
        run(3, ideal),
        run(3, "low"),
        assert(2, Ghz, "swap", ideal, false),
        assert(3, Plus, "auto", ideal, true),
        assert(2, Ghz, "ndd", "melbourne", false),
    ];
    if size == Size::Full {
        shapes.extend([
            run(4, ideal),
            run(5, ideal),
            run(2, "melbourne"),
            run(4, "low"),
            run(4, "melbourne"),
            assert(3, W, "or", ideal, false),
            assert(4, Ghz, "ndd", ideal, true),
            assert(2, W, "ndd", ideal, true),
            assert(4, W, "swap", ideal, false),
            assert(2, Plus, "swap", "low", true),
            assert(3, Ghz, "or", "melbourne", false),
            assert(3, W, "ndd", "low", true),
            assert(5, Plus, "auto", ideal, false),
            assert(5, Ghz, "or", ideal, true),
            assert(5, W, "swap", ideal, false),
            assert(5, Ghz, "ndd", ideal, false),
            assert(5, Plus, "or", ideal, true),
            assert(5, W, "auto", ideal, true),
        ]);
    }
    shapes
}

/// Generates one job of `shape` into `dir/name`. A `first_seen` assert
/// host gets a random phase kick on one qubit, so no other job in the run
/// shares its circuit (`run` circuits are random anyway).
fn job(
    dir: &Path,
    name: &str,
    shape: Shape,
    first_seen: bool,
    rng: &mut Rng,
) -> Result<Vec<String>, String> {
    let seed = (rng.next_u64() % 1_000_000).to_string();
    let mut job = match shape {
        Shape::Run { n, noise } => {
            let file = write_qasm(dir, name, &random_measured(n, 2, rng))?;
            argv(&["run", &file, "--seed", &seed, "--noise", noise])
        }
        Shape::Assert {
            n,
            family,
            design,
            noise,
            bug,
        } => {
            let spec = asserted(family, n, rng)?;
            let mut host = if bug { spec.buggy } else { spec.correct };
            if first_seen {
                host.rz(rng.unit() * std::f64::consts::PI, rng.below(n));
            }
            let file = write_qasm(dir, name, &host)?;
            argv(&[
                "assert",
                &file,
                "--qubits",
                &qubit_list(n),
                "--state",
                &spec.state,
                "--design",
                design,
                "--seed",
                &seed,
                "--noise",
                noise,
            ])
        }
    };
    // `--noise ideal` is the default; leave it off as a user would.
    if job.last().map(String::as_str) == Some("ideal") {
        job.truncate(job.len() - 2);
    }
    Ok(job)
}

fn rss_mark(size: Size) -> usize {
    match size {
        Size::Full => RSS_MARK_BATCH,
        Size::Tiny => 1,
    }
}

/// The generated template pool and where first-seen jobs go.
struct Inputs {
    dir: PathBuf,
    seed: u64,
    shapes: Vec<Shape>,
    templates: Vec<Vec<String>>,
    passes: usize,
    fresh: usize,
}

fn inputs(cfg: &RunConfig, dir: &Path) -> Result<Inputs, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut rng = Rng::new(derive(cfg.seed, 3));
    let shapes = shapes(cfg.size);
    let templates = shapes
        .iter()
        .copied()
        .enumerate()
        .map(|(i, shape)| job(dir, &format!("t{i}.qasm"), shape, false, &mut rng))
        .collect::<Result<Vec<_>, _>>()?;
    let (passes, fresh) = match cfg.size {
        Size::Full => (PASSES, FRESH),
        Size::Tiny => (1, 1),
    };
    Ok(Inputs {
        dir: dir.to_path_buf(),
        seed: derive(cfg.seed, 4),
        shapes,
        templates,
        passes,
        fresh,
    })
}

impl Inputs {
    /// Batch `index` of `client`: the template pool `passes` times plus
    /// `fresh` first-seen jobs, in a seeded order. The first-seen jobs
    /// take the pool's shapes in turn. Writing their QASM files is the
    /// only work, done before the batch's clock starts.
    fn batch(&self, client: usize, index: usize) -> Result<Vec<Vec<String>>, String> {
        let mut rng = Rng::new(derive(self.seed, ((client as u64) << 32) | index as u64));
        let mut jobs: Vec<Vec<String>> = (0..self.passes)
            .flat_map(|_| self.templates.iter().cloned())
            .collect();
        for j in 0..self.fresh {
            let shape = self.shapes[(index * self.fresh + j) % self.shapes.len()];
            let name = format!("f{client}-{index}-{j}.qasm");
            jobs.push(job(&self.dir, &name, shape, true, &mut rng)?);
        }
        for k in (1..jobs.len()).rev() {
            jobs.swap(k, rng.below(k + 1));
        }
        Ok(jobs)
    }
}

/// One answered batch.
#[derive(Debug)]
struct Batch {
    jobs: Vec<Vec<String>>,
    latency_ms: f64,
    /// The client's own time between the previous batch's last answer
    /// and this send (making the batch): the generator self-check.
    gap_ms: f64,
    responses: Vec<JobResponse>,
}

/// What one closed-loop pass measured.
struct Pass {
    /// Per client, its batches in order.
    batches: Vec<Vec<Batch>>,
    wall: Duration,
    status: String,
}

impl Pass {
    fn all(&self) -> impl Iterator<Item = &Batch> {
        self.batches.iter().flatten()
    }

    fn jobs(&self) -> usize {
        self.all().map(|b| b.jobs.len()).sum()
    }
}

/// Runs the clients against a live daemon until `next` has no batch left
/// for each of them, then drains the daemon. `next(client, index)` gives
/// the client's next batch, or `None` when it is done.
fn closed_loop(
    daemon: &mut Daemon,
    next: impl Fn(usize, usize) -> Option<Result<Vec<Vec<String>>, String>> + Sync,
) -> Result<Pass, String> {
    let socket = daemon.socket.clone();
    let start = Instant::now();
    let results: Vec<Result<Vec<Batch>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (socket, next) = (&socket, &next);
                scope.spawn(move || {
                    let mut batches = Vec::new();
                    let mut answered = Instant::now();
                    while let Some(jobs) = next(client, batches.len()) {
                        let jobs = jobs?;
                        let t0 = Instant::now();
                        let responses = submit_jobs(socket, &jobs).map_err(|e| e.0)?;
                        batches.push(Batch {
                            latency_ms: ms(t0.elapsed()),
                            gap_ms: ms(t0 - answered),
                            jobs,
                            responses,
                        });
                        answered = Instant::now();
                    }
                    Ok(batches)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let wall = start.elapsed();
    let status = daemon.status()?;
    daemon.stop()?;
    Ok(Pass {
        batches: results.into_iter().collect::<Result<_, _>>()?,
        wall,
        status,
    })
}

/// The correctness gate: every daemon answer must equal `execute` of the
/// same argv in this process, byte for byte and with the same exit code.
/// Returns per batch whether all its answers passed, and the number of
/// wrong answers.
fn check(pass: &Pass) -> (Vec<bool>, u64) {
    let mut expected: HashMap<&[String], Result<(String, i32), String>> = HashMap::new();
    let mut wrong = 0;
    let mut batch_ok = Vec::new();
    for batch in pass.all() {
        let mut ok = true;
        for (argv, r) in batch.jobs.iter().zip(&batch.responses) {
            let want = expected.entry(argv).or_insert_with(|| {
                parse_args(argv)
                    .and_then(|command| execute_with_code(&command))
                    .map_err(|e| e.0)
            });
            let right = matches!(want, Ok((out, code))
                if r.ok && !r.dropped && r.code == *code && r.output == *out);
            if !right {
                wrong += 1;
                ok = false;
            }
        }
        batch_ok.push(ok);
    }
    (batch_ok, wrong)
}

fn status_field(status: &str, path: &[&str]) -> f64 {
    let Ok(mut value) = qra::faults::json::parse(status) else {
        return 0.0;
    };
    for key in ["status"].iter().chain(path) {
        match value.get(key) {
            Some(v) => value = v.clone(),
            None => return 0.0,
        }
    }
    value.as_u64().map_or(0.0, |v| v as f64)
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    // Traced runs spend half the budget untraced, then replay the same
    // batches against a traced daemon.
    let budget = if cfg.trace {
        cfg.budget() / 2
    } else {
        cfg.budget()
    };
    let dir = cfg.work.join("serve-repeat");
    let socket = dir.join("d.sock");
    let (setup_s, (inputs, mut daemon, cache)) = timed_setups(|| {
        let inputs = inputs(cfg, &dir)?;
        let cache = Arc::new(ProgramCache::new());
        let executor = daemon_executor(Arc::clone(&cache), Vec::new());
        let daemon = Daemon::start(&socket, executor, Arc::clone(&cache))?;
        Ok((inputs, daemon, cache))
    })?;
    let start = Instant::now();
    let rss_at_mark = std::sync::OnceLock::new();
    let untraced = closed_loop(&mut daemon, |client, index| {
        if client == 0 && index == rss_mark(cfg.size) {
            let _ = rss_at_mark.set(peak_rss_mb());
        }
        (index == 0 || start.elapsed() < budget).then(|| inputs.batch(client, index))
    })?;
    // Read before the in-process reference answers below add their own
    // allocations.
    let rss_end = peak_rss_mb();
    let rss = rss_at_mark.get().copied().unwrap_or(rss_end);
    let (batch_ok, mut failed) = check(&untraced);
    let jobs = untraced.jobs();
    let latencies: Vec<f64> = untraced.all().map(|b| b.latency_ms).collect();
    let jobs_per_s = jobs as f64 / untraced.wall.as_secs_f64();
    let good: usize = untraced
        .all()
        .zip(&batch_ok)
        .filter(|(b, ok)| **ok && b.latency_ms <= LIMIT_MS)
        .map(|(b, _)| b.jobs.len())
        .sum();
    let goodput = good as f64 / untraced.wall.as_secs_f64();
    let (p50, p90) = (percentile(&latencies, 0.5), percentile(&latencies, 0.9));
    let hit_ratio = cache.hits() as f64 / (cache.hits() + cache.misses()).max(1) as f64;
    let mut outcome = Outcome {
        attempted: jobs as u64,
        report: vec![
            metric("setup_s", setup_s, "s"),
            metric("jobs_per_s", jobs_per_s, "1/s"),
            metric("goodput_rps", goodput, "1/s"),
            metric("latency_p50_ms", p50, "ms"),
            metric("latency_p90_ms", p90, "ms"),
            metric("latency_samples", latencies.len() as f64, "count"),
            metric("peak_rss_mb", rss, "MB"),
            metric("peak_rss_mb_end", rss_end, "MB"),
            metric("cache_hit_ratio", hit_ratio, "ratio"),
        ],
        record: vec![
            ("loop", "closed (batches)".to_string()),
            ("client_threads", CLIENTS.to_string()),
            ("connections", CLIENTS.to_string()),
            ("daemon_workers", DAEMON_WORKERS.to_string()),
            ("templates", inputs.templates.len().to_string()),
            (
                "batch_jobs",
                (inputs.templates.len() * inputs.passes + inputs.fresh).to_string(),
            ),
            ("first_seen_per_batch", inputs.fresh.to_string()),
            ("batch_limit_ms", format!("{LIMIT_MS}")),
            (
                "peak_rss_read_at",
                if rss_at_mark.get().is_some() {
                    format!("client 0's batch {}", rss_mark(cfg.size))
                } else {
                    "end of run (mark not reached)".to_string()
                },
            ),
        ],
        ..Outcome::default()
    };
    if !cfg.trace {
        outcome.metrics = end_to_end(setup_s, jobs_per_s, p90, rss);
        outcome.failed = failed;
        return Ok(outcome);
    }

    // Traced pass: the same batches against a fresh daemon whose executor
    // is the layer-by-layer replay, each job inside a `serve.service` span.
    let trace = Arc::new(Trace::new());
    let counters = Arc::new(Counters::default());
    let traced_cache = Arc::new(ProgramCache::new());
    let executor: Arc<JobExecutor> = {
        let (trace, counters, cache) = (
            Arc::clone(&trace),
            Arc::clone(&counters),
            Arc::clone(&traced_cache),
        );
        Arc::new(move |argv: &[String]| {
            let req = trace.request();
            trace.span("serve.service", None, req, |id| {
                replay_job(
                    Tracer {
                        trace: &trace,
                        counters: &counters,
                        req,
                        parent: Some(id),
                    },
                    argv,
                    Some(&cache),
                )
            })
        })
    };
    drop(daemon);
    let mut traced_daemon = Daemon::start(&socket, executor, Arc::clone(&traced_cache))?;
    let traced = closed_loop(&mut traced_daemon, |client, index| {
        untraced.batches[client]
            .get(index)
            .map(|b| Ok(b.jobs.clone()))
    })?;
    for (a, b) in untraced.all().zip(traced.all()) {
        for (ra, rb) in a.responses.iter().zip(&b.responses) {
            if !(rb.ok && ra.code == rb.code && ra.output == rb.output) {
                failed += 1;
            }
        }
    }
    let totals = trace.totals(|_| true);
    let ops = jobs as u64;
    let mut layers = Layers::new();
    layers.spans(&totals, ops);
    layers.counters(&counters);
    layers.cache(&traced_cache);
    // Assertion costs over the fixed template pool only (how many
    // first-seen jobs a run holds varies with its length).
    let (cx, ancillas) = assertion_costs(&inputs);
    layers.set("core.assertion_cx", cx as f64);
    layers.set("core.assertion_ancillas", ancillas as f64);
    let service_ms = total_ms(&totals, "serve.service", ops);
    // The daemon's own enqueue-to-answer latency per job, less service.
    let response_ms = traced
        .all()
        .flat_map(|b| &b.responses)
        .map(|r| r.latency_us as f64 / 1e3)
        .sum::<f64>()
        / ops.max(1) as f64;
    layers.set("serve.service_ms", service_ms);
    layers.set("serve.queue_wait_ms", (response_ms - service_ms).max(0.0));
    layers.set(
        "serve.daemon_p50_us",
        status_field(&traced.status, &["latency_us", "p50"]),
    );
    layers.set(
        "serve.daemon_p99_us",
        status_field(&traced.status, &["latency_us", "p99"]),
    );
    layers.set("serve.dropped", status_field(&traced.status, &["dropped"]));
    layers.set(
        "bench.unaccounted_ms",
        crate::trace::self_ms(&totals, "serve.service", ops),
    );
    layers.set("bench.traced_op_ms", service_ms);
    let gaps: Vec<f64> = untraced.all().map(|b| b.gap_ms).collect();
    layers.set("bench.generator_late_ms", percentile(&gaps, 0.99));
    let traced_latencies: Vec<f64> = traced.all().map(|b| b.latency_ms).collect();
    layers.set(
        "bench.tracing_overhead_pct",
        100.0 * (median(&traced_latencies) / median(&latencies) - 1.0),
    );
    layers.set("bench.failed_ratio", failed as f64 / (2 * ops) as f64);
    outcome.attempted = 2 * ops;
    outcome.failed = failed;
    outcome.metrics = layers.into_metrics();
    cfg.write_spans("serve-repeat", &trace)?;
    Ok(outcome)
}

/// Summed assertion cost (CX, ancillas) of the template pool's `assert`
/// jobs, synthesized once each.
fn assertion_costs(inputs: &Inputs) -> (usize, usize) {
    let mut cx = 0;
    let mut ancillas = 0;
    for argv in &inputs.templates {
        if let Ok(qra_cli::Command::Assert {
            file,
            qubits,
            state,
            design,
            ..
        }) = parse_args(argv)
        {
            let spec = qra_cli::parse_state(&state, qubits.len());
            let circuit = std::fs::read_to_string(&file)
                .ok()
                .and_then(|text| qra::circuit::qasm_parser::from_qasm(&text).ok());
            if let (Ok(spec), Some(mut circuit)) = (spec, circuit) {
                if let Ok(handle) =
                    qra::core::insert_assertion(&mut circuit, &qubits, &spec, design)
                {
                    cx += handle.counts.cx;
                    ancillas += handle.counts.ancilla;
                }
            }
        }
    }
    (cx, ancillas)
}
