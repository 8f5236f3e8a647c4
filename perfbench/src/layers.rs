//! The benchmark's metric names. Every run reports every name of its mode:
//! untraced runs the end-to-end list, traced runs the per-layer list (0
//! where a workload never enters that layer). `BENCHMARK.json` lists the
//! same names.

use crate::common::{metric, Metric};
use crate::replay::Counters;
use crate::trace::{self_ms, total_ms, Totals};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

/// End-to-end metrics, measured with tracing off. `latency_p50_ms` is a
/// report line only: it falls on millisecond-scale requests and cells,
/// whose speed swings with the host's load by more than the largest bound
/// the benchmark may set (see README.md, "Steadiness").
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, from the traced run. `_ms` span metrics are self
/// time per traced op unless the name says otherwise.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("circuit.from_qasm_ms", "ms/op"),
    ("cli.parse_args_ms", "ms/op"),
    ("cli.parse_state_ms", "ms/op"),
    ("core.correct_states_ms", "ms/op"),
    ("core.insert_assertion_ms", "ms/op"),
    ("core.insert_assertion_self_ms", "ms/op"),
    ("core.assertion_cx", "count"),
    ("core.assertion_ancillas", "count"),
    ("core.correct_states_pct_widest", "%"),
    ("sim.sv_compile_ms", "ms/op"),
    ("sim.sv_execute_ms", "ms/op"),
    ("sim.density_compile_ms", "ms/op"),
    ("sim.density_execute_ms", "ms/op"),
    ("sim.other_execute_ms", "ms/op"),
    ("sim.density_compile_pct_melbourne_widest", "%"),
    ("sim.kernel_ops", "count/exec"),
    ("sim.fused_away", "count/exec"),
    ("sim.prefix_len", "count/exec"),
    ("sim.state_bytes_computed", "B/exec"),
    ("sim.cells_statevector", "count"),
    ("sim.cells_density", "count"),
    ("sim.cells_trajectory", "count"),
    ("sim.cells_stabilizer", "count"),
    ("sim.cache_hits", "count"),
    ("sim.cache_misses", "count"),
    ("sim.cache_hit_ratio", "ratio"),
    ("sim.cache_entries", "count"),
    ("faults.executor_busy_s", "s"),
    ("faults.non_executor_busy_s", "s"),
    ("faults.cells_completed", "count"),
    ("faults.cells_failed", "count"),
    ("faults.cells_skipped", "count"),
    ("faults.cells_per_s", "1/s"),
    ("orch.units_per_s", "1/s"),
    ("orch.overhead_s", "s"),
    ("orch.attempts", "count"),
    ("orch.quarantined", "count"),
    ("orch.torn_lines", "count"),
    ("serve.service_ms", "ms/op"),
    ("serve.queue_wait_ms", "ms/op"),
    ("serve.daemon_p50_us", "us"),
    ("serve.daemon_p99_us", "us"),
    ("serve.dropped", "count"),
    ("bench.unaccounted_ms", "ms/op"),
    ("bench.tracing_overhead_pct", "%"),
    ("bench.accounted_pct", "%"),
    ("bench.traced_op_ms", "ms/op"),
    ("bench.traced_ops", "count"),
    ("bench.generator_late_ms", "ms"),
    ("bench.failed_ratio", "ratio"),
];

/// Values for every per-layer name, zero until set.
#[derive(Debug)]
pub struct Layers {
    values: Vec<(&'static str, &'static str, f64)>,
}

impl Layers {
    pub fn new() -> Layers {
        Layers {
            values: PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, unit, 0.0))
                .collect(),
        }
    }

    /// Sets one metric. Unknown names are a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        slot.2 = value;
    }

    /// The span-derived layer times of `ops` traced operations.
    pub fn spans(&mut self, totals: &BTreeMap<&'static str, Totals>, ops: u64) {
        for (metric_name, span) in [
            ("circuit.from_qasm_ms", "circuit.from_qasm"),
            ("cli.parse_args_ms", "cli.parse_args"),
            ("cli.parse_state_ms", "cli.parse_state"),
            ("core.correct_states_ms", "core.correct_states"),
            ("sim.sv_compile_ms", "sim.sv_compile"),
            ("sim.sv_execute_ms", "sim.sv_execute"),
            ("sim.density_compile_ms", "sim.density_compile"),
            ("sim.density_execute_ms", "sim.density_execute"),
            ("sim.other_execute_ms", "sim.other_execute"),
        ] {
            self.set(metric_name, self_ms(totals, span, ops));
        }
        let insert = total_ms(totals, "core.insert_assertion", ops);
        self.set("core.insert_assertion_ms", insert);
        self.set(
            "core.insert_assertion_self_ms",
            (insert - self_ms(totals, "core.correct_states", ops)).max(0.0),
        );
        self.set("bench.traced_ops", ops as f64);
    }

    /// The simulator counts gathered by the replays.
    pub fn counters(&mut self, counters: &Counters) {
        let executions = counters.executions.load(Ordering::Relaxed).max(1) as f64;
        let per_exec =
            |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed) as f64 / executions;
        self.set("sim.kernel_ops", per_exec(&counters.kernel_ops));
        self.set("sim.fused_away", per_exec(&counters.fused_away));
        self.set("sim.prefix_len", per_exec(&counters.prefix_len));
        self.set("sim.state_bytes_computed", per_exec(&counters.state_bytes));
        for (name, slot) in [
            ("sim.cells_statevector", 0),
            ("sim.cells_density", 1),
            ("sim.cells_trajectory", 2),
            ("sim.cells_stabilizer", 3),
        ] {
            self.set(name, counters.backends[slot].load(Ordering::Relaxed) as f64);
        }
    }

    /// Cache counters of a `ProgramCache`.
    pub fn cache(&mut self, cache: &qra::sim::ProgramCache) {
        let (hits, misses) = (cache.hits() as f64, cache.misses() as f64);
        self.set("sim.cache_hits", hits);
        self.set("sim.cache_misses", misses);
        self.set(
            "sim.cache_hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        );
        self.set("sim.cache_entries", cache.entries() as f64);
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        self.values
            .into_iter()
            .map(|(name, unit, value)| metric(name, value, unit))
            .collect()
    }
}

/// The end-to-end metric list, in [`END_TO_END`] order.
pub fn end_to_end(setup_s: f64, ops_per_s: f64, p90_ms: f64, rss_mb: f64) -> Vec<Metric> {
    let values = [setup_s, ops_per_s, p90_ms, rss_mb];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| metric(name, value, unit))
        .collect()
}
