//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around its calls into
//! each layer's public functions; the program itself is not instrumented.
//! A span holds its name, start, end, parent span and request id; spans
//! stay in memory until the run ends and are then written out as JSON
//! lines. A span's self time is its duration minus the time its direct
//! children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    req: u64,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Sum of span durations.
    pub total: Duration,
    /// Sum of self times (duration minus direct children).
    pub self_time: Duration,
}

/// The recorder. Shared by reference across client, daemon-worker and
/// campaign-runner threads.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_req: AtomicU64,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_req: AtomicU64::new(0),
        }
    }

    /// A fresh request id.
    pub fn request(&self) -> u64 {
        self.next_req.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to
    /// parent nested spans on.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = {
            let mut spans = self.spans.lock().expect("trace lock poisoned");
            let now = self.epoch.elapsed();
            spans.push(Span {
                name,
                start: now,
                end: now,
                parent,
                req,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.epoch.elapsed();
        self.spans.lock().expect("trace lock poisoned")[id].end = end;
        out
    }

    /// Per-name totals over the spans whose request satisfies `keep`.
    pub fn totals(&self, keep: impl Fn(u64) -> bool) -> BTreeMap<&'static str, Totals> {
        let spans = self.spans.lock().expect("trace lock poisoned");
        let mut child_time = vec![Duration::ZERO; spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                child_time[parent] += span.end - span.start;
            }
        }
        let mut totals: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (id, span) in spans.iter().enumerate() {
            if !keep(span.req) {
                continue;
            }
            let duration = span.end - span.start;
            let entry = totals.entry(span.name).or_default();
            entry.total += duration;
            entry.self_time += duration.saturating_sub(child_time[id]);
        }
        totals
    }

    /// Writes every span as one JSON line (microseconds since the trace
    /// started).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("trace lock poisoned");
        let mut out = String::with_capacity(spans.len() * 96);
        for (id, span) in spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"req\":{}}}",
                span.name,
                span.start.as_micros(),
                span.end.as_micros(),
                span.req
            );
        }
        std::fs::write(path, out)
    }
}

/// Self time per op of span `name`, in milliseconds (0 when absent).
pub fn self_ms(totals: &BTreeMap<&'static str, Totals>, name: &str, ops: u64) -> f64 {
    per_op(
        totals.get(name).map_or(Duration::ZERO, |t| t.self_time),
        ops,
    )
}

/// Total time per op of span `name`, in milliseconds (0 when absent).
pub fn total_ms(totals: &BTreeMap<&'static str, Totals>, name: &str, ops: u64) -> f64 {
    per_op(totals.get(name).map_or(Duration::ZERO, |t| t.total), ops)
}

fn per_op(d: Duration, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        d.as_secs_f64() * 1e3 / ops as f64
    }
}
