//! `qra-orch` — a work-queue orchestrator for distributed noise sweeps.
//!
//! The paper's evaluation (§IX) is a matrix of
//! assertion design × fault class × noise point; a sequential
//! [`run_sweep`](qra_faults::run_sweep) walks it one campaign at a time.
//! This crate distributes the same matrix at the granularity of one
//! **unit** — a `(sweep point × campaign cell)` pair, plus one margin
//! calibration unit per point in auto-margin mode — across N worker
//! processes, with all coordination through a crash-safe run directory:
//!
//! * [`rundir`] — the shared state: a `manifest.json` describing the sweep
//!   (written once, temp+rename), an exclusive lease file per unit, one
//!   checksummed append-only JSONL record stream per worker pid, per-unit
//!   attempt markers, and an atomically replaced `progress.json`;
//! * [`lease`] — the claim-file format: owner pid plus a heartbeat mtime,
//!   with a `failed` marker distinguishing recorded failures from
//!   abandoned leases;
//! * [`worker`] — the claim-execute-record loop each worker runs
//!   (`qra worker --run-dir <dir>` in production, in-process threads in
//!   tests and embedded mode), including poison-unit quarantine;
//! * [`orchestrate`] — spawning workers as subprocesses of our own binary,
//!   monitoring them (killing hung workers past the unit timeout and
//!   reclaiming units of dead ones), and emitting progress events to
//!   stderr and `progress.json`;
//! * [`chaos`] — deterministic, env-driven fault injection (debug builds
//!   only) proving all of the above against real worker subprocesses.
//!
//! **Determinism contract.** Campaign cell seeds derive from
//! `(seed, cell index)` and calibration seeds from
//! `(seed, point index, repeat)` alone, and every unit record embeds its
//! `(point, cell)` coordinate, so
//! [`assemble_sweep`](qra_faults::assemble_sweep) over any complete record
//! set — any worker count, any scheduling order, any number of
//! kill+resume cycles — produces a [`SweepReport`](qra_faults::SweepReport)
//! byte-identical to the sequential run at the same seed. Workers affect
//! only *when* a unit runs, never *what* it computes. Quarantined units
//! are the one deliberate exception: a unit that exhausts `max_attempts`
//! is recorded as a deterministic named skip (reason + attempt history),
//! so its annotation — not its timing — is what differs from the
//! sequential run, identically across worker counts and kill histories.

#![deny(missing_docs)]

pub mod chaos;
pub mod lease;
pub mod orchestrate;
pub mod rundir;
pub mod worker;

pub use chaos::Chaos;
pub use lease::Lease;
pub use orchestrate::{
    monitor_workers, run_threaded, spawn_workers, spawn_workers_on, EpochOutcome,
};
pub use rundir::{
    parse_progress, progress_json, stream_host, Manifest, ResultsStream, RunDir, ScanState,
    ATTEMPT_REASON_DIED, DEFAULT_MAX_ATTEMPTS, LOCAL_HOST,
};
pub use worker::{worker_loop, worker_loop_on, QuarantineRenderer, UnitRunner};

use std::fmt;

/// Error from run-directory I/O, worker execution, or orchestration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrchError(pub String);

impl fmt::Display for OrchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for OrchError {}
