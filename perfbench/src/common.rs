//! Shared result types, statistics, memory probes and the run record.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, cells + units, jobs).
    pub attempted: u64,
    /// Operations that failed, were refused or dropped, or whose output
    /// failed a correctness gate.
    pub failed: u64,
    /// The metrics the final JSON line carries: every end-to-end metric
    /// untraced, every per-layer metric traced.
    pub metrics: Vec<Metric>,
    /// The workload's own metrics under the names a user of that
    /// workload knows (`requests_per_s`, `cells_per_s`, `goodput_rps`, …),
    /// printed as report lines before the JSON.
    pub report: Vec<Metric>,
    /// Run-record fields specific to the workload (threads, workers, …).
    pub record: Vec<(&'static str, String)>,
}

/// Workload size: `Full` is what the benchmark measures; `Tiny` is the
/// self-test's smoke size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Everything a workload needs from the command line.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Private working directory for generated inputs, sockets and run
    /// directories (removed after the run).
    pub work: std::path::PathBuf,
    /// Where spans and the run record are written.
    pub out: std::path::PathBuf,
}

impl RunConfig {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile (`p` in 0..=1) of unsorted samples; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// How many times each run sets up. Set-up takes milliseconds of file
/// and thread start-up, which swing with the host: take the median of many.
const SETUPS: usize = 101;

/// Runs `setup` [`SETUPS`] times and returns the median wall-clock in
/// seconds plus the last setup's product.
pub fn timed_setups<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        // Tearing down the previous product (a running daemon) happens
        // before, and outside, the timed interval.
        drop(last.take());
        let start = Instant::now();
        let product = setup()?;
        secs.push(start.elapsed().as_secs_f64());
        last = Some(product);
    }
    Ok((median(&secs), last.expect("at least one setup ran")))
}

/// The `VmHWM` line of a `/proc/<pid>/status` text, in KiB.
fn vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
}

/// This process's peak resident memory in MiB: `VmHWM` from
/// `/proc/self/status`. Unlike `getrusage`'s `ru_maxrss`, it belongs to
/// this address space alone and starts afresh at exec, so it does not
/// inherit the launching process's mark. 0 where `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| vm_hwm_kib(&status))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// A list of MiB figures for the run record, e.g. `14.52 14.61`.
pub fn mb_list(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.2}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Where a sweep worker started as `worker --run-dir <dir>` leaves its
/// peak resident memory: `<dir>.hwm-<pid>`, a sibling of the run
/// directory, outside what the orchestrator scans.
pub fn worker_hwm_path(run_dir: &Path) -> std::path::PathBuf {
    let mut name = run_dir.as_os_str().to_owned();
    name.push(format!(".hwm-{}", std::process::id()));
    name.into()
}

/// Kills and reaps every child process this one still has, returning how
/// many there were. `qra sweep run` waits for its workers on every path
/// but one: when its monitor returns an error, the worker handles are
/// dropped and the workers keep running. Children are found through the
/// parent field of `/proc/<pid>/stat`; none are found where `/proc` is
/// missing.
pub fn reap_children() -> usize {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
        fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
    }
    const SIGKILL: i32 = 9;
    let me = std::process::id().to_string();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return 0;
    };
    let children: Vec<i32> = entries
        .flatten()
        .filter_map(|entry| {
            let pid = entry.file_name().to_str()?.parse().ok()?;
            let stat = std::fs::read_to_string(entry.path().join("stat")).ok()?;
            // `pid (comm) state ppid …`, where comm may hold spaces.
            let ppid = stat.rsplit_once(')')?.1.split_whitespace().nth(1)?;
            (ppid == me).then_some(pid)
        })
        .collect();
    for &pid in &children {
        let mut status = 0;
        // SAFETY: plain libc calls on a pid whose parent is this process,
        // so it cannot be reused before `waitpid` reaps it.
        unsafe {
            kill(pid, SIGKILL);
            while waitpid(pid, &mut status, 0) == -1
                && std::io::Error::last_os_error().kind() == std::io::ErrorKind::Interrupted
            {
            }
        }
    }
    children.len()
}

/// Available cores, as the library itself resolves them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit the checkout was made from, read from `.git` without running
/// git (which could wander into directories above the checkout).
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(commit) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return commit.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (commit, name) = line.split_once(' ')?;
                (name == reference).then(|| commit.to_string())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// FNV-1a over the workspace sources (`crates/**` and the manifests), so
/// a run record identifies the code it measured even outside git.
pub fn source_fingerprint() -> String {
    let mut files = Vec::new();
    collect_files(Path::new("crates"), &mut files);
    files.push(Path::new("Cargo.toml").to_path_buf());
    files.push(Path::new("Cargo.lock").to_path_buf());
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let Ok(bytes) = std::fs::read(file) else {
            continue;
        };
        for b in file.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// Renders a finite number for JSON (non-finite values become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The `{"name":{"value":v,"unit":u},…}` object of a metric list.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"value\":{},\"unit\":{}}}",
            qra::faults::json::json_str(m.name),
            json_num(m.value),
            qra::faults::json::json_str(m.unit)
        );
    }
    out.push('}');
    out
}

impl RunConfig {
    /// Writes the traced run's spans to `<out>/<workload>-s<seed>-spans.jsonl`.
    pub fn write_spans(&self, workload: &str, trace: &crate::trace::Trace) -> Result<(), String> {
        let path = self
            .out
            .join(format!("{workload}-s{}-spans.jsonl", self.seed));
        trace
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("spans: {}", path.display());
        Ok(())
    }
}

/// Cumulative (steal, total) CPU jiffies from `/proc/stat`: time the
/// hypervisor ran other guests while this guest's CPUs wanted to run.
pub fn cpu_steal() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

#[cfg(test)]
mod tests {
    #[test]
    fn reap_children_kills_and_reaps_a_dropped_child() {
        let child = std::process::Command::new("sleep")
            .arg("60")
            .spawn()
            .expect("sleep starts");
        let pid = child.id();
        // Dropping a handle neither kills nor waits for the process.
        drop(child);
        assert_eq!(super::reap_children(), 1);
        assert!(!std::path::Path::new(&format!("/proc/{pid}")).exists());
        assert_eq!(super::reap_children(), 0);
    }
}
