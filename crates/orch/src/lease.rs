//! Unit leases: claim files that carry the owning worker's pid and use
//! their mtime as a heartbeat.
//!
//! A lease is published whole (exactly one owner per unit per epoch) with
//! the owner's pid as its first line: the pid is written and synced to a
//! uniquely named temp file first, which is then hard-linked to the lease
//! path — a link fails with `AlreadyExists` when another owner holds the
//! lease, and a reader never sees a lease without its pid. The file's
//! mtime — stamped when the owner claims the unit — is the unit's
//! heartbeat: the monitor treats a non-failed lease older than the
//! manifest's unit timeout as a stalled unit, kills its owner, and
//! reclaims the unit. A worker that *observes*
//! a unit failure (the runner returned an error, rather than the process
//! dying mid-unit) appends a `failed` marker line, so the monitor and the
//! stale-claim sweep can tell a recorded failure (attempt already counted
//! by the worker) from an abandoned lease (attempt counted at reclaim).

use crate::OrchError;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A parsed lease file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// Pid of the worker that claimed the unit (0 when the lease carries
    /// no pid — a lease file not written by [`acquire`]).
    pub pid: u32,
    /// Whether the owner marked the unit failed after recording an
    /// attempt for it.
    pub failed: bool,
    /// Heartbeat age: time since the lease was last touched.
    pub age: Duration,
}

/// File-name prefix of the temp files [`acquire`] links leases from. A
/// name with it never parses as a claim; a crash between creating the
/// temp file and removing it leaves one behind, which the stale-claim
/// sweep clears (see [`is_temp`]).
const TEMP_PREFIX: &str = ".lease-";

/// Whether `name` is a leftover [`acquire`] temp file.
pub(crate) fn is_temp(name: &std::ffi::OsStr) -> bool {
    name.to_str().is_some_and(|n| n.starts_with(TEMP_PREFIX))
}

/// Atomically acquires the lease at `path` for the current process.
/// Returns `false` when another owner already holds it (or the lease
/// cannot be written).
///
/// The pid is written and synced to a temp file next to `path` before
/// the temp file is hard-linked to `path`, so the lease appears with its
/// pid already in it: a monitor never reads an owned lease as pid 0 and
/// takes its live owner for dead.
pub fn acquire(path: &Path) -> bool {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let name = format!(
        "{TEMP_PREFIX}{}-{}-{}",
        path.file_name().unwrap_or_default().to_string_lossy(),
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    );
    let temp = path.with_file_name(name);
    let Ok(mut f) = OpenOptions::new().write(true).create_new(true).open(&temp) else {
        return false;
    };
    // `AlreadyExists` from the link means another owner holds the lease.
    let won = writeln!(f, "{}", std::process::id()).is_ok()
        && f.sync_all().is_ok()
        && std::fs::hard_link(&temp, path).is_ok();
    let _ = std::fs::remove_file(&temp);
    won
}

/// Reads the lease at `path`; `None` when it does not exist or cannot be
/// read (e.g. it was just released by the monitor).
pub fn read(path: &Path) -> Option<Lease> {
    let meta = std::fs::metadata(path).ok()?;
    let text = std::fs::read_to_string(path).ok()?;
    let pid = text
        .lines()
        .next()
        .and_then(|l| l.trim().parse().ok())
        .unwrap_or(0);
    let failed = text.lines().any(|l| l.trim() == "failed");
    let age = meta
        .modified()
        .ok()
        .and_then(|m| std::time::SystemTime::now().duration_since(m).ok())
        .unwrap_or_default();
    Some(Lease { pid, failed, age })
}

/// Appends the `failed` marker to the lease at `path`, recording that the
/// owner observed the unit fail (as opposed to dying while running it).
///
/// # Errors
///
/// Returns [`OrchError`] on I/O failure (including a missing lease).
pub fn mark_failed(path: &Path) -> Result<(), OrchError> {
    let mut f = OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| OrchError(format!("opening lease {}: {e}", path.display())))?;
    writeln!(f, "failed")
        .map_err(|e| OrchError(format!("marking lease {}: {e}", path.display())))?;
    f.sync_all()
        .map_err(|e| OrchError(format!("syncing lease {}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(tag: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("qra-orch-lease-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn lease_acquires_exclusively_and_carries_pid() {
        let path = tmpfile("acquire");
        assert!(acquire(&path));
        assert!(!acquire(&path), "second acquire must lose");
        let lease = read(&path).unwrap();
        assert_eq!(lease.pid, std::process::id());
        assert!(!lease.failed);
        assert!(lease.age < Duration::from_secs(60));
        let _ = std::fs::remove_file(&path);
        assert!(read(&path).is_none(), "released lease reads as None");
    }

    #[test]
    fn failed_marker_round_trips_and_needs_a_lease() {
        let path = tmpfile("failed");
        assert!(acquire(&path));
        mark_failed(&path).unwrap();
        let lease = read(&path).unwrap();
        assert_eq!(lease.pid, std::process::id());
        assert!(lease.failed);
        let _ = std::fs::remove_file(&path);
        assert!(mark_failed(&path).is_err(), "no lease to mark");
    }

    /// A monitor reading a lease while its owner acquires it must see the
    /// owner's pid or no lease, never an empty lease it would take for
    /// abandoned (pid 0) and reclaim from a live owner.
    #[test]
    fn concurrent_reader_never_sees_a_lease_without_its_pid() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        // A directory of its own, so no other test's temp files show up.
        let dir = tmpfile("race");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("u0");
        let stop = AtomicBool::new(false);
        let start = Barrier::new(2);
        let zero_reads = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                start.wait();
                let mut zero = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    if read(&path).is_some_and(|l| l.pid == 0) {
                        zero += 1;
                    }
                }
                zero
            });
            start.wait();
            for _ in 0..10_000 {
                assert!(acquire(&path));
                std::fs::remove_file(&path).unwrap();
            }
            stop.store(true, Ordering::SeqCst);
            reader.join().unwrap()
        });
        assert_eq!(zero_reads, 0, "reads saw a lease without its pid");
        let leftover: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(
            leftover.is_empty(),
            "acquire left files behind: {leftover:?}"
        );
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn empty_lease_reads_as_abandoned_pid_zero() {
        let path = tmpfile("empty");
        std::fs::write(&path, "").unwrap();
        let lease = read(&path).unwrap();
        assert_eq!(lease.pid, 0);
        assert!(!lease.failed);
        let _ = std::fs::remove_file(&path);
    }
}
