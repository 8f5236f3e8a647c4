//! Layer-by-layer replays for the traced run.
//!
//! The traced run calls the same public functions the CLI's `run` and
//! `assert` commands and the campaign layer's `default_executor` call, in
//! the same order, with a span around each call. Every replayed output is
//! checked byte-for-byte against the production path, so a replay that
//! drifts from the program fails the run instead of timing something else.

use crate::trace::Trace;
use qra::circuit::qasm_parser::from_qasm;
use qra::circuit::{Circuit, GateCounts};
use qra::core::insert_assertion;
use qra::faults::{default_executor, BackendChoice, BackendKind, CampaignConfig};
use qra::sim::{
    CompiledProgram, Counts, DensityMatrixSimulator, ProgramCache, SimError, StatevectorSimulator,
};
use qra_cli::{execute_with_code_cached, parse_args, parse_state, Command};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Counts gathered at the replayed layer boundaries.
#[derive(Debug, Default)]
pub struct Counters {
    /// Executions (one per simulated circuit).
    pub executions: AtomicU64,
    /// Compiled kernel ops, summed over executions.
    pub kernel_ops: AtomicU64,
    /// Kernels removed by fusion, summed over executions.
    pub fused_away: AtomicU64,
    /// Cached noise-free prefix lengths, summed over executions.
    pub prefix_len: AtomicU64,
    /// Bytes of simulated state each execution computes over
    /// (16·2ⁿ statevector, 16·4ⁿ density), summed.
    pub state_bytes: AtomicU64,
    /// Executions per backend: statevector, density, trajectory, stabilizer.
    pub backends: [AtomicU64; 4],
    /// Assertion circuit cost of every `insert_assertion` call, by
    /// request id.
    pub assertions: Mutex<Vec<(u64, GateCounts)>>,
}

impl Counters {
    pub fn count_backend(&self, backend: BackendKind) {
        let slot = match backend {
            BackendKind::Statevector => 0,
            BackendKind::DensityMatrix => 1,
            BackendKind::Trajectory => 2,
            BackendKind::Stabilizer => 3,
        };
        self.backends[slot].fetch_add(1, Ordering::Relaxed);
    }

    fn program(&self, ops: usize, fused: usize, prefix: usize, state_bytes: u64) {
        self.kernel_ops.fetch_add(ops as u64, Ordering::Relaxed);
        self.fused_away.fetch_add(fused as u64, Ordering::Relaxed);
        self.prefix_len.fetch_add(prefix as u64, Ordering::Relaxed);
        self.state_bytes.fetch_add(state_bytes, Ordering::Relaxed);
    }
}

/// Where replay spans go.
#[derive(Debug, Clone, Copy)]
pub struct Tracer<'a> {
    pub trace: &'a Trace,
    pub counters: &'a Counters,
    pub req: u64,
    pub parent: Option<usize>,
}

impl Tracer<'_> {
    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.trace.span(name, self.parent, self.req, |_| f())
    }
}

/// Replays one `qra` job argv — what `parse_args` + `execute_with_code_cached`
/// do for it — with a span per layer call. `run` and `assert` are replayed
/// call by call; any other command runs whole inside one span.
pub fn replay_job(
    t: Tracer<'_>,
    argv: &[String],
    cache: Option<&Arc<ProgramCache>>,
) -> Result<(String, i32), String> {
    let command = t
        .span("cli.parse_args", || parse_args(argv))
        .map_err(|e| e.0)?;
    match command {
        Command::Run {
            file,
            shots,
            seed,
            noise,
            sim_threads,
            backend,
        } => {
            let circuit = load(t, &file)?;
            let config = one_shot_config(shots, seed, noise, sim_threads, backend, cache);
            let (counts, _) = execute(t, &circuit, &config, seed).map_err(|e| e.to_string())?;
            let mut out = String::new();
            let _ = writeln!(out, "shots: {}", counts.total());
            for (key, n) in counts.iter() {
                let _ = writeln!(
                    out,
                    "  {}: {n} ({:.3})",
                    counts.key_to_string(key),
                    n as f64 / counts.total() as f64
                );
            }
            Ok((out, 0))
        }
        Command::Assert {
            file,
            qubits,
            state,
            design,
            shots,
            seed,
            noise,
            sim_threads,
            backend,
        } => {
            let mut circuit = load(t, &file)?;
            let spec = t
                .span("cli.parse_state", || parse_state(&state, qubits.len()))
                .map_err(|e| e.0)?;
            // insert_assertion computes the correct-state basis inside;
            // time that inner call on the same input as its own span.
            t.span("core.correct_states", || spec.correct_states())
                .map_err(|e| e.to_string())?;
            let handle = t
                .span("core.insert_assertion", || {
                    insert_assertion(&mut circuit, &qubits, &spec, design)
                })
                .map_err(|e| e.to_string())?;
            t.counters
                .assertions
                .lock()
                .expect("counters poisoned")
                .push((t.req, handle.counts));
            let config = one_shot_config(shots, seed, noise, sim_threads, backend, cache);
            let (counts, _) = execute(t, &circuit, &config, seed).map_err(|e| e.to_string())?;
            let rate = handle.error_rate(&counts);
            let mut out = String::new();
            let _ = writeln!(out, "design:        {}", handle.design);
            let _ = writeln!(out, "circuit cost:  {}", handle.counts);
            let _ = writeln!(out, "error rate:    {rate:.4}");
            let verdict = if rate > 0.01 { "FAIL" } else { "pass" };
            let _ = writeln!(out, "verdict:       {verdict}");
            Ok((out, 0))
        }
        other => t
            .span("cli.execute", || execute_with_code_cached(&other, cache))
            .map_err(|e| e.0),
    }
}

fn load(t: Tracer<'_>, file: &str) -> Result<Circuit, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    t.span("circuit.from_qasm", || from_qasm(&text))
        .map_err(|e| e.to_string())
}

/// The campaign config the CLI's one-shot `run`/`assert` path builds.
fn one_shot_config(
    shots: u64,
    seed: u64,
    noise: qra::sim::DevicePreset,
    sim_threads: usize,
    backend: BackendChoice,
    cache: Option<&Arc<ProgramCache>>,
) -> CampaignConfig {
    CampaignConfig {
        shots,
        seed,
        noise: noise.noise_model(),
        jobs: 1,
        sim_threads,
        memory_budget_bytes: u64::MAX,
        backend,
        cache: cache.cloned(),
        ..CampaignConfig::default()
    }
}

/// `default_executor`'s routing, replayed with a span around compile and
/// execute. Routes the replay does not split (stabilizer, trajectory) run
/// through `default_executor` itself inside one span.
pub fn execute(
    t: Tracer<'_>,
    circuit: &Circuit,
    config: &CampaignConfig,
    seed: u64,
) -> Result<(Counts, BackendKind), SimError> {
    let result = execute_split(t, circuit, config, seed)?;
    t.counters.executions.fetch_add(1, Ordering::Relaxed);
    t.counters.count_backend(result.1);
    Ok(result)
}

fn execute_split(
    t: Tracer<'_>,
    circuit: &Circuit,
    config: &CampaignConfig,
    seed: u64,
) -> Result<(Counts, BackendKind), SimError> {
    let n = circuit.num_qubits() as u32;
    let sim_threads = config.thread_plan().sim_threads;
    if config.backend == BackendChoice::Default && config.noise.is_ideal() {
        let program = t.span("sim.sv_compile", || match &config.cache {
            Some(cache) => cache.compile_statevector(circuit),
            None => CompiledProgram::compile(circuit).map(Arc::new),
        })?;
        t.counters.program(
            program.op_count(),
            program.fused_away(),
            program.prefix_len(),
            16u64 << n,
        );
        let counts = t.span("sim.sv_execute", || {
            StatevectorSimulator::with_seed(seed)
                .with_threads(sim_threads)
                .run_compiled(&program, config.shots)
        })?;
        return Ok((counts, BackendKind::Statevector));
    }
    let density_bytes = 16u128.checked_shl(2 * n).unwrap_or(u128::MAX);
    if config.backend == BackendChoice::Default
        && density_bytes <= u128::from(config.memory_budget_bytes)
    {
        let sim =
            DensityMatrixSimulator::with_noise(config.noise.clone()).with_threads(sim_threads);
        let compiled = t.span("sim.density_compile", || match &config.cache {
            Some(cache) => cache.compile_density(circuit, &config.noise),
            None => sim.compile(circuit).map(Arc::new),
        });
        match compiled {
            Ok(program) => {
                t.counters.program(
                    program.op_count(),
                    0,
                    program.prefix_len(),
                    16u64.checked_shl(2 * n).unwrap_or(u64::MAX),
                );
                let counts = t.span("sim.density_execute", || {
                    sim.run_compiled(&program, config.shots, seed)
                })?;
                return Ok((counts, BackendKind::DensityMatrix));
            }
            // Past the exact backend's width: default_executor degrades.
            Err(SimError::TooManyQubits { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    t.span("sim.other_execute", || {
        default_executor(circuit, config, seed)
    })
}
