//! Orchestration: spawn N workers over a run directory, monitor them, and
//! emit progress until the unit grid is covered.
//!
//! Workers are subprocesses re-invoking our own binary
//! (`qra worker --run-dir <dir>`), so a SIGKILL of any worker — or of the
//! orchestrator itself — loses at most the units that worker had claimed
//! but not recorded; `sweep resume` clears those stale claims and finishes
//! the rest. The monitor additionally polices unit leases mid-epoch: a
//! lease whose heartbeat exceeded the manifest's unit timeout gets its
//! hung owner killed and the unit reclaimed, and a lease whose owner died
//! without recording the unit is reclaimed on the spot — either way one
//! replacement worker is spawned, so an epoch can no longer block forever
//! on one stuck process. An embedded threaded mode runs the same worker
//! loop on in-process threads (used by `--workers` on a machine where
//! spawning is undesirable, and by tests).

use crate::rundir::{progress_json, Manifest, RunDir, ScanState, ATTEMPT_REASON_DIED};
use crate::worker::{worker_loop, QuarantineRenderer, UnitRunner};
use crate::OrchError;
use std::io::Write as _;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How often the monitor rescans and re-emits progress.
const MONITOR_INTERVAL: Duration = Duration::from_millis(300);

/// Spawns `workers` subprocess workers over `dir`, each running
/// `<exe> worker --run-dir <dir>`. On a mid-loop spawn failure the
/// already-spawned children are killed and reaped before the error
/// returns, so no orphan workers outlive the failed call.
///
/// # Errors
///
/// Returns [`OrchError`] when the current executable cannot be determined
/// or a spawn fails.
pub fn spawn_workers(dir: &RunDir, workers: usize) -> Result<Vec<Child>, OrchError> {
    spawn_workers_on(dir, workers, &[])
}

/// [`spawn_workers`] distributed round-robin over a host list. An empty
/// list (and the literal host [`crate::rundir::LOCAL_HOST`]) spawns the
/// legacy local worker. Other `local`-prefixed labels (e.g. `localA`)
/// spawn locally but write host-labelled result streams — the testable
/// multi-host shape. Anything else is reached as
/// `ssh <host> <exe> worker --run-dir <dir> --host <host>`, which
/// assumes the run directory is on a shared mount and the `qra` binary
/// sits at the same path on the remote host.
///
/// # Errors
///
/// Returns [`OrchError`] when the current executable cannot be determined
/// or a spawn fails (a dead ssh target surfaces as a worker that exits
/// nonzero, not a spawn failure).
pub fn spawn_workers_on(
    dir: &RunDir,
    workers: usize,
    hosts: &[String],
) -> Result<Vec<Child>, OrchError> {
    let exe = std::env::current_exe()
        .map_err(|e| OrchError(format!("cannot locate own executable: {e}")))?;
    // Remote shells start in $HOME: ship an absolute run-dir path.
    let abs_root = dir
        .root()
        .canonicalize()
        .unwrap_or_else(|_| dir.root().to_path_buf());
    let mut children = Vec::with_capacity(workers);
    for w in 0..workers {
        let host = if hosts.is_empty() {
            crate::rundir::LOCAL_HOST
        } else {
            hosts[w % hosts.len()].as_str()
        };
        let mut command = if host == crate::rundir::LOCAL_HOST {
            let mut c = Command::new(&exe);
            c.arg("worker").arg("--run-dir").arg(dir.root());
            c
        } else if host.starts_with("local") {
            let mut c = Command::new(&exe);
            c.arg("worker")
                .arg("--run-dir")
                .arg(dir.root())
                .arg("--host")
                .arg(host);
            c
        } else {
            let mut c = Command::new("ssh");
            c.arg("-oBatchMode=yes")
                .arg(host)
                .arg(exe.as_os_str())
                .arg("worker")
                .arg("--run-dir")
                .arg(&abs_root)
                .arg("--host")
                .arg(host);
            c
        };
        let spawned = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| OrchError(format!("spawning worker for host {host}: {e}")));
        match spawned {
            Ok(child) => children.push(child),
            Err(e) => {
                for mut child in children {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                return Err(e);
            }
        }
    }
    Ok(children)
}

/// The outcome of one orchestration epoch.
#[derive(Debug)]
pub struct EpochOutcome {
    /// The final scan after every worker exited.
    pub state: ScanState,
    /// Workers that exited with a failure status, were killed by a
    /// signal, or were killed by the monitor for a stalled lease.
    pub workers_failed: usize,
}

impl EpochOutcome {
    /// Whether every unit of the manifest has a completed record
    /// (quarantined units count — their record is their named skip).
    pub fn complete(&self, manifest: &Manifest) -> bool {
        self.state.completed.len() == manifest.total_units()
    }
}

/// Monitors spawned workers until they all exit: rescans the run directory
/// on an interval, polices unit leases (kills hung owners past the unit
/// timeout, reclaims units of dead owners, respawns one replacement per
/// reclaim), writes `progress.json` (atomically) and emits a progress line
/// to stderr whenever the counts change.
///
/// # Errors
///
/// Returns [`OrchError`] on scan, progress-write or replacement-spawn
/// failure, after killing and reaping every worker still running. Worker
/// failures are *not* errors — they are reported in the outcome so the
/// caller can decide between "resume will finish this" and "done".
pub fn monitor_workers(
    dir: &RunDir,
    manifest: &Manifest,
    children: Vec<Child>,
) -> Result<EpochOutcome, OrchError> {
    let mut workers = Workers(children);
    let children = &mut workers.0;
    let started = Instant::now();
    let mut point_elapsed: Vec<Option<f64>> = vec![None; manifest.labels.len()];
    let mut point_done: Vec<usize> = vec![0; manifest.labels.len()];
    let mut workers_failed = 0;
    let mut last_line = String::new();
    loop {
        // Reap exited workers.
        children.retain_mut(|child| match child.try_wait() {
            Ok(Some(status)) => {
                if !status.success() {
                    workers_failed += 1;
                }
                false
            }
            Ok(None) => true,
            Err(_) => {
                workers_failed += 1;
                false
            }
        });

        let mut state = dir.scan(manifest)?;
        let killed = police_leases(dir, manifest, children, &state)?;
        if killed > 0 {
            workers_failed += killed;
            // Reclaims released leases; rescan so progress reflects it.
            state = dir.scan(manifest)?;
        }
        observe_points(
            manifest,
            &state,
            started,
            &mut point_done,
            &mut point_elapsed,
        );
        dir.write_progress(&progress_json(manifest, &state, &point_elapsed))?;
        let line = format!(
            "sweep: {}/{} unit(s) done, {} in-flight, {} failed, {} quarantined, \
             {} worker(s) running",
            state.completed.len(),
            manifest.total_units(),
            state.in_flight.len(),
            state.failed.len(),
            state.quarantined.len(),
            children.len()
        );
        if line != last_line {
            let _ = writeln!(std::io::stderr(), "{line}");
            last_line = line;
        }
        for report in &state.corrupt {
            let _ = writeln!(std::io::stderr(), "sweep: corrupt record: {report}");
        }

        if children.is_empty() {
            return Ok(EpochOutcome {
                state,
                workers_failed,
            });
        }
        std::thread::sleep(MONITOR_INTERVAL);
    }
}

/// Worker processes that are killed and reaped when dropped, so no error
/// return (or panic) out of [`monitor_workers`] leaves workers running.
struct Workers(Vec<Child>);

impl Drop for Workers {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Polices unit leases mid-epoch. For every in-flight, non-failed lease:
/// if its owner is one of our live children and its heartbeat exceeded
/// the manifest's unit timeout, the hung owner is killed and the unit
/// reclaimed (one attempt recorded); if its owner is *not* among the live
/// children, the owner died mid-unit and the unit is reclaimed likewise.
/// Each reclaim spawns one replacement worker, keeping the epoch's worker
/// count. Returns how many hung workers were killed.
///
/// Every reclaim writes exactly one attempt marker, and claimers
/// quarantine units at `max_attempts`, so respawns are bounded by
/// `total_units × max_attempts` — a poison unit converges to quarantine
/// instead of respawning forever.
fn police_leases(
    dir: &RunDir,
    manifest: &Manifest,
    children: &mut Vec<Child>,
    state: &ScanState,
) -> Result<usize, OrchError> {
    let mut killed = 0;
    for &unit in &state.in_flight {
        let Some(lease) = dir.lease(unit) else {
            continue;
        };
        if lease.failed {
            continue; // the owner recorded the failure; the epoch retry handles it
        }
        match children.iter().position(|c| c.id() == lease.pid) {
            Some(i) => {
                let Some(timeout_ms) = manifest.unit_timeout_ms else {
                    continue;
                };
                if lease.age < Duration::from_millis(timeout_ms) {
                    continue;
                }
                // Stalled: kill the hung owner first, then double-check the
                // unit did not complete in the window since our scan — a
                // reclaim of a completed unit would duplicate its record.
                let mut child = children.swap_remove(i);
                let _ = child.kill();
                let _ = child.wait();
                killed += 1;
                if !dir.scan(manifest)?.completed.contains(&unit) {
                    dir.record_attempt(
                        unit,
                        &format!("unit execution exceeded the {timeout_ms}ms unit timeout"),
                    )?;
                    dir.release_claim(unit)?;
                }
                children.extend(spawn_workers_on(dir, 1, &manifest.hosts)?);
            }
            None => {
                // The owner is not a live child: it died (or was killed)
                // holding the lease. Its stream is fsynced per record, so
                // nothing can complete the unit anymore — reclaim now
                // instead of stalling until the epoch boundary.
                dir.record_attempt(unit, ATTEMPT_REASON_DIED)?;
                dir.release_claim(unit)?;
                children.extend(spawn_workers_on(dir, 1, &manifest.hosts)?);
            }
        }
    }
    Ok(killed)
}

/// Stamps each point's elapsed time whenever its done-count advances, so
/// `progress.json` reports per-point wall-clock from epoch start to the
/// point's most recent completion.
fn observe_points(
    manifest: &Manifest,
    state: &ScanState,
    started: Instant,
    point_done: &mut [usize],
    point_elapsed: &mut [Option<f64>],
) {
    for p in 0..manifest.labels.len() {
        let done = state
            .completed
            .iter()
            .filter(|&&u| u / manifest.units_per_point == p)
            .count();
        if done > point_done[p] {
            point_done[p] = done;
            point_elapsed[p] = Some(started.elapsed().as_secs_f64());
        }
    }
}

/// Runs an orchestration epoch on in-process threads instead of
/// subprocesses: `workers` threads each run [`worker_loop`] with distinct
/// scatter offsets. Used by orch's own tests and callers that want
/// single-process orchestration; the run-directory protocol is identical.
///
/// # Errors
///
/// Returns [`OrchError`] on scan failure; individual worker errors are
/// counted in the outcome (their claims stay for resume), not propagated.
pub fn run_threaded(
    dir: &RunDir,
    manifest: &Manifest,
    workers: usize,
    run_unit: &UnitRunner<'_>,
    quarantine: &QuarantineRenderer<'_>,
) -> Result<EpochOutcome, OrchError> {
    let total = manifest.total_units().max(1);
    let workers_failed = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|w| {
                let dir = dir.clone();
                let scatter = w * total / workers.max(1);
                scope.spawn(move || worker_loop(&dir, manifest, scatter, run_unit, quarantine))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join())
            .filter(|outcome| !matches!(outcome, Ok(Ok(_))))
            .count()
    });
    let state = dir.scan(manifest)?;
    let point_elapsed: Vec<Option<f64>> = vec![None; manifest.labels.len()];
    dir.write_progress(&progress_json(manifest, &state, &point_elapsed))?;
    Ok(EpochOutcome {
        state,
        workers_failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qra-orch-epoch-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn manifest() -> Manifest {
        Manifest {
            argv: vec![],
            labels: vec!["a".into(), "b".into(), "c".into()],
            cells_per_point: 4,
            units_per_point: 4,
            margin: "0.02".into(),
            workers: 3,
            unit_timeout_ms: None,
            max_attempts: 3,
            hosts: vec![],
        }
    }

    fn no_quarantine(_: usize, _: usize, _: &[String]) -> Result<String, OrchError> {
        panic!("quarantine renderer must not run in this test");
    }

    #[test]
    fn threaded_epoch_covers_units_exactly_once_across_workers() {
        let root = tmpdir("threads");
        let m = manifest();
        let dir = RunDir::init(&root, &m).unwrap();
        let executions = AtomicUsize::new(0);
        let runner = |p: usize, c: usize| {
            executions.fetch_add(1, Ordering::SeqCst);
            Ok(format!("{{\"point\":{p},\"cell\":{c},\"margins\":[]}}"))
        };
        let outcome = run_threaded(&dir, &m, 3, &runner, &no_quarantine).unwrap();
        assert_eq!(outcome.workers_failed, 0);
        assert!(outcome.complete(&m));
        // Claims made every unit run exactly once despite 3 racing workers.
        assert_eq!(executions.load(Ordering::SeqCst), m.total_units());
        assert_eq!(
            outcome.state.completed,
            (0..m.total_units()).collect::<BTreeSet<_>>()
        );
        assert!(dir.progress_path().exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn interrupted_epoch_resumes_to_completion() {
        let root = tmpdir("resume");
        let m = manifest();
        let dir = RunDir::init(&root, &m).unwrap();
        // First epoch: the runner fails every unit after the fifth — the
        // worker records an attempt per failure and keeps walking, so the
        // epoch ends with 5 completed and 7 failed-but-claimed units.
        let count = AtomicUsize::new(0);
        let dying = |p: usize, c: usize| {
            if count.fetch_add(1, Ordering::SeqCst) >= 5 {
                Err(OrchError("killed".into()))
            } else {
                Ok(format!("{{\"point\":{p},\"cell\":{c},\"margins\":[]}}"))
            }
        };
        let outcome = run_threaded(&dir, &m, 1, &dying, &no_quarantine).unwrap();
        assert_eq!(
            outcome.workers_failed, 0,
            "failures no longer abort the worker"
        );
        assert!(!outcome.complete(&m));
        assert_eq!(outcome.state.completed.len(), 5);
        assert_eq!(
            outcome.state.in_flight.len(),
            7,
            "failed units stay claimed"
        );

        // Resume: clear stale claims (no double-counted attempts), run a
        // fresh epoch.
        dir.clear_stale_claims(&outcome.state.completed).unwrap();
        let healthy =
            |p: usize, c: usize| Ok(format!("{{\"point\":{p},\"cell\":{c},\"margins\":[]}}"));
        let outcome = run_threaded(&dir, &m, 2, &healthy, &no_quarantine).unwrap();
        assert!(outcome.complete(&m));
        assert_eq!(outcome.workers_failed, 0);
        let _ = fs::remove_dir_all(&root);
    }

    /// An error out of the monitor (here a scan of a run dir whose claims
    /// directory vanished) must kill and reap every worker it was handed.
    #[test]
    fn monitor_error_kills_and_reaps_its_workers() {
        let root = tmpdir("monitor-error");
        let m = manifest();
        let dir = RunDir::init(&root, &m).unwrap();
        fs::remove_dir_all(root.join("claims")).unwrap();
        let child = Command::new("sleep").arg("60").spawn().unwrap();
        let pid = child.id();
        assert!(monitor_workers(&dir, &m, vec![child]).is_err());
        // Reaped: the pid no longer names a process (not even a zombie).
        assert!(!std::path::Path::new(&format!("/proc/{pid}")).exists());
        let _ = fs::remove_dir_all(&root);
    }
}
